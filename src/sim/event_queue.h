// Event-queue implementations behind sim::Engine.
//
// Both queues order events by (time, insertion sequence) — the engine's
// total order — so they are interchangeable without affecting results:
//
//  * heap: a 4-ary implicit min-heap over 24-byte POD keys. Shallower than
//    binary for the same size, so a sift touches fewer cache lines;
//    children of node i are 4i+1 .. 4i+4. O(log n) schedule/pop.
//  * ladder: a two-rung calendar queue (plus an overflow heap). The
//    current 1024-tick window is fully tick-addressed — one FIFO vector
//    per tick, so same-tick events pop in exact seq order with no
//    comparisons at all. The next ~2 ms are a ring of 1024-tick buckets,
//    each poured into the tick rung when the window reaches it (an O(1)
//    move per event). Only events beyond the ring horizon touch a heap
//    (the overflow, counted as "spills"). O(1) amortized schedule/pop
//    regardless of the pending-event count, which is what dominates at
//    the 10^4..10^5 pending sizes campaigns reach (see DESIGN.md §5.9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.h"

namespace actnet::sim {

/// Queue key; the event callable lives out-of-line in the engine's slot
/// vector so queue maintenance moves 24-byte PODs, not 64-byte callables.
struct EventKey {
  Tick t;
  std::uint64_t seq;
  std::uint32_t slot;

  bool before(const EventKey& o) const {
    return t != o.t ? t < o.t : seq < o.seq;
  }

  bool operator==(const EventKey& o) const {
    return t == o.t && seq == o.seq && slot == o.slot;
  }
};

namespace detail {

inline constexpr std::size_t kHeapArity = 4;

inline void heap_push(std::vector<EventKey>& heap, EventKey k) {
  std::size_t i = heap.size();
  heap.push_back(k);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!heap[i].before(heap[parent])) break;
    std::swap(heap[i], heap[parent]);
    i = parent;
  }
}

inline EventKey heap_pop(std::vector<EventKey>& heap) {
  const EventKey top = heap.front();
  const EventKey last = heap.back();
  heap.pop_back();
  if (!heap.empty()) {
    // Sift the former last element down from the root.
    std::size_t i = 0;
    const std::size_t n = heap.size();
    while (true) {
      const std::size_t first_child = i * kHeapArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end =
          first_child + kHeapArity < n ? first_child + kHeapArity : n;
      for (std::size_t c = first_child + 1; c < end; ++c)
        if (heap[c].before(heap[best])) best = c;
      if (!heap[best].before(last)) break;
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = last;
  }
  return top;
}

/// Fixed-size occupancy bitmap over N slots (N a multiple of 64): lets the
/// drain skip runs of empty ticks/buckets in a few word operations instead
/// of probing vectors one by one.
template <std::size_t N>
class BitSet {
 public:
  void set(std::size_t i) { w_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void clear(std::size_t i) { w_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }

  /// Smallest set index >= from, or N when none.
  std::size_t next(std::size_t from) const {
    if (from >= N) return N;
    std::size_t word = from >> 6;
    std::uint64_t bits = w_[word] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++word == N / 64) return N;
      bits = w_[word];
    }
    return (word << 6) + static_cast<std::size_t>(ctz(bits));
  }

  /// Smallest set index strictly after `from`, scanning cyclically.
  /// Precondition: some bit is set.
  std::size_t next_cyclic(std::size_t from) const {
    const std::size_t i = next(from + 1);
    return i < N ? i : next(0);
  }

 private:
  static int ctz(std::uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(x);
#else
    int n = 0;
    while ((x & 1) == 0) {
      x >>= 1;
      ++n;
    }
    return n;
#endif
  }

  std::uint64_t w_[N / 64] = {};
};

}  // namespace detail

/// Calendar/ladder queue. Tier boundaries (current window low edge
/// `win_lo_`, always kWindow-aligned):
///   t <  win_lo_ + kWindow            -> tick rung: FIFO vector per tick
///   t <  win_lo_ + kBuckets*kWindow   -> ring bucket ((t/kWindow) mod n)
///   otherwise                         -> overflow heap ("spill")
///
/// Total order without sorting: within one tick, events are appended in
/// schedule order, and every route into a tick vector preserves ascending
/// seq — direct pushes arrive in seq order; a ring bucket is poured into
/// the tick rung before any direct push can target its ticks (pushes to a
/// not-yet-poured range go to the ring); and the overflow drains into a
/// ring bucket the moment the horizon crosses it, before any direct push
/// to that bucket is possible. So pop() is "walk ticks left to right, read
/// each vector front to back" — exact (t, seq) order, no comparisons.
class LadderQueue {
 public:
  /// The tick-addressed window: 1024 ticks (~1 µs). Packet serialization,
  /// propagation, switch jitter, and NIC overheads land here directly.
  static constexpr int kWindowBits = 10;
  static constexpr std::size_t kWindow = std::size_t{1} << kWindowBits;
  /// Ring of 1024-tick buckets spanning ~2.1 ms: probe sleeps and compute
  /// phases. Only longer timers (measurement windows) spill to overflow.
  static constexpr std::size_t kBuckets = 2048;

  LadderQueue() : ticks_(kWindow), buckets_(kBuckets) {}

  /// `floor` is a lower bound on this and every future push's time — the
  /// engine's now(). On the first push into an empty queue the window is
  /// realigned to it (not to k.t, which may exceed later pushes' times).
  void push(EventKey k, Tick floor) {
    if (size_ == 0) rebase(floor);
    ++size_;
    if (k.t < win_lo_ + static_cast<Tick>(cur_tick_)) {
      // The drain cursor can sit AHEAD of now(): a bounded drain peeks,
      // settle() walks the cursor (or the whole window) forward to a
      // future event, the drain stops at its limit, and the engine keeps
      // scheduling between the limit and the cursor — time sliced through
      // Cluster::run_for does this at every slice boundary. The rung scan
      // is forward-only, so such a push must not touch the rung — it parks
      // in the front heap, which serves before every other tier (every
      // rung/ring/overflow event is at or after the cursor), preserving
      // exact (t, seq) order.
      detail::heap_push(front_, k);
      return;
    }
    if (k.t < win_lo_ + static_cast<Tick>(kWindow)) {
      push_tick(k);
      return;
    }
    if (k.t < win_lo_ + horizon()) {
      const std::size_t b = bucket_index(k.t);
      buckets_[b].push_back(k);
      bucket_bits_.set(b);
      ++ring_count_;
      return;
    }
    detail::heap_push(overflow_, k);
    ++spills_;
  }

  /// Precondition: !empty().
  EventKey pop() {
    if (!front_.empty()) {
      --size_;
      return detail::heap_pop(front_);
    }
    settle();
    --size_;
    --window_count_;
    return ticks_[cur_tick_][pos_++];
  }

  /// Earliest pending (time, seq); may slide the window forward to find
  /// it. Precondition: !empty().
  const EventKey& peek() {
    if (!front_.empty()) return front_.front();
    settle();
    return ticks_[cur_tick_][pos_];
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Events routed to the overflow heap since construction (monotone).
  std::uint64_t spills() const { return spills_; }

 private:
  static constexpr Tick horizon() {
    return static_cast<Tick>(kWindow) * static_cast<Tick>(kBuckets);
  }
  static std::size_t bucket_index(Tick t) {
    return static_cast<std::size_t>(t >> kWindowBits) & (kBuckets - 1);
  }

  void push_tick(EventKey k) {
    // The window is kWindow-aligned, so t & (kWindow-1) == t - win_lo_:
    // tick indices are linear, not wrapped.
    const std::size_t i = static_cast<std::size_t>(k.t) & (kWindow - 1);
    ticks_[i].push_back(k);
    tick_bits_.set(i);
    ++window_count_;
  }

  /// Points (cur_tick_, pos_) at the earliest pending event, sliding the
  /// window forward as needed. Precondition: size_ > 0.
  void settle();

  /// Realigns the window around `t` (only valid when size_ == 0) so pushes
  /// near now() land in the tick rung instead of spilling after a
  /// run_until() far past the last event. `t` must lower-bound all future
  /// pushes until the queue drains again: tick indices are linear offsets
  /// from win_lo_, so a push below win_lo_ would alias a wrong slot.
  void rebase(Tick t) {
    // Scrub the tick the previous drain stopped on: settle() only cleans a
    // vector when advancing past it, so after a full drain one spent
    // vector (and its occupancy bit) survives and must not be re-served.
    ticks_[cur_tick_].clear();
    tick_bits_.clear(cur_tick_);
    win_lo_ = t & ~static_cast<Tick>(kWindow - 1);
    cur_tick_ = static_cast<std::size_t>(t) & (kWindow - 1);
    pos_ = 0;
  }

  std::vector<std::vector<EventKey>> ticks_;    ///< rung 0: one FIFO per tick
  std::vector<std::vector<EventKey>> buckets_;  ///< rung 1: the ring
  std::vector<EventKey> overflow_;  ///< 4-ary heap; beyond the ring horizon
  detail::BitSet<kWindow> tick_bits_;
  detail::BitSet<kBuckets> bucket_bits_;
  Tick win_lo_ = 0;            ///< window low edge, kWindow-aligned
  std::size_t cur_tick_ = 0;   ///< drain position within the window
  std::size_t pos_ = 0;        ///< drain position within ticks_[cur_tick_]
  std::size_t window_count_ = 0;  ///< undrained events in ticks_
  std::size_t ring_count_ = 0;    ///< events currently in buckets_
  std::size_t size_ = 0;
  std::uint64_t spills_ = 0;
  /// Events pushed below win_lo_ after a bounded drain slid the window
  /// ahead of now(); served before every other tier. Almost always empty.
  std::vector<EventKey> front_;
};

}  // namespace actnet::sim

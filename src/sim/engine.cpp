#include "sim/engine.h"

#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/env.h"

namespace actnet::sim {
namespace {

/// Events between flushes of the executed-events counter during a drain.
/// The stall watchdog reads that counter as its only sign of progress, so
/// a long healthy drain has to publish before it ends; a power of two
/// keeps the check to one mask and compare per event.
constexpr std::uint64_t kProgressBatch = std::uint64_t{1} << 16;

SchedulerKind scheduler_from_env() {
  const std::string v = util::env_string("ACTNET_SCHEDULER");
  if (v.empty() || v == "ladder") return SchedulerKind::kLadder;
  ACTNET_CHECK_MSG(v == "heap",
                   "ACTNET_SCHEDULER must be 'heap' or 'ladder', got '" << v
                                                                        << "'");
  return SchedulerKind::kHeap;
}

}  // namespace

Engine::Engine() : Engine(scheduler_from_env()) {}

Engine::Engine(SchedulerKind kind) : kind_(kind) {
  if (obs::enabled()) attach_metrics(obs::default_registry());
}

void Engine::attach_metrics(obs::Registry& r) {
  m_scheduled_ = &r.counter("sim.engine.events_scheduled");
  m_executed_ = &r.counter("sim.engine.events_executed");
  m_spills_ = &r.counter("sim.engine.ladder.spills");
  m_heap_peak_ = &r.gauge("sim.engine.heap_peak");
  m_slots_peak_ = &r.gauge("sim.engine.slots_peak");
  obs::Counter* executed = m_executed_;
  r.callback_gauge("sim.engine.heap_allocs_per_event", [executed] {
    const auto ev = executed->value();
    return ev > 0 ? static_cast<double>(inline_fn_heap_allocations()) /
                        static_cast<double>(ev)
                  : 0.0;
  });
}

std::uint32_t Engine::alloc_slot(EventFn fn) {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    slots_[s] = std::move(fn);
    return s;
  }
  slots_.push_back(std::move(fn));
  slot_seq_.push_back(kDeadSeq);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventKey Engine::push_event(Tick t, EventFn fn) {
  ACTNET_CHECK_MSG(t >= now_, "event scheduled in the past: t=" << t
                                                                << " now=" << now_);
  ACTNET_CHECK(fn);
  const EventKey k{t, next_seq_++, alloc_slot(std::move(fn))};
  slot_seq_[k.slot] = k.seq;
  if (kind_ == SchedulerKind::kHeap)
    detail::heap_push(heap_, k);
  else
    ladder_.push(k, now_);
  if (m_scheduled_ != nullptr) {
    m_scheduled_->inc();
    m_heap_peak_->max(static_cast<double>(pending()));
    m_slots_peak_->max(static_cast<double>(slots_.size()));
  }
  return k;
}

void Engine::schedule_at(Tick t, EventFn fn) { push_event(t, std::move(fn)); }

Engine::CancelToken Engine::schedule_cancellable_at(Tick t, EventFn fn) {
  const EventKey k = push_event(t, std::move(fn));
  return CancelToken{k.slot, k.seq};
}

bool Engine::cancel(CancelToken token) {
  if (!token.valid() || token.slot >= slot_seq_.size()) return false;
  if (slot_seq_[token.slot] != token.seq) return false;  // fired or reused
  // Tombstone: the key stays queued but its callable is emptied; drain
  // discards it for free. The slot is reclaimed when the key pops.
  slots_[token.slot] = EventFn{};
  slot_seq_[token.slot] = kDeadSeq;
  ++cancelled_;
  return true;
}

std::uint64_t Engine::drain(Tick limit, bool bounded) {
  // One profiler frame per drain call, not per event: the scope's two
  // clock reads amortize over the whole batch and stay off the event path.
  obs::ProfScope prof(obs::Subsystem::kEngine);
  std::uint64_t n = 0;
  while (true) {
    EventKey k;
    if (kind_ == SchedulerKind::kHeap) {
      if (heap_.empty() || (bounded && heap_.front().t > limit)) break;
      k = detail::heap_pop(heap_);
    } else {
      if (ladder_.empty() || (bounded && ladder_.peek().t > limit)) break;
      k = ladder_.pop();
    }
    now_ = k.t;
    // Move the callable out so it can schedule further events (and so the
    // slot is immediately reusable by them).
    EventFn fn = std::move(slots_[k.slot]);
    free_slots_.push_back(k.slot);
    slot_seq_[k.slot] = kDeadSeq;
    if (!fn) continue;  // cancelled tombstone
    ++processed_;
    ++n;
    fn();
    ACTNET_CHECK_MSG(budget_ == 0 || n <= budget_,
                     "event budget exhausted (" << budget_ << ")");
    if ((n & (kProgressBatch - 1)) == 0 && m_executed_ != nullptr)
      m_executed_->inc(kProgressBatch);
  }
  if (m_executed_ != nullptr) {
    m_executed_->inc(n & (kProgressBatch - 1));
    const std::uint64_t spills = ladder_.spills();
    if (spills != spills_reported_) {
      m_spills_->inc(spills - spills_reported_);
      spills_reported_ = spills;
    }
  }
  return n;
}

std::uint64_t Engine::run() { return drain(0, /*bounded=*/false); }

std::uint64_t Engine::run_until(Tick t) {
  ACTNET_CHECK(t >= now_);
  const std::uint64_t n = drain(t, /*bounded=*/true);
  now_ = t;
  return n;
}

}  // namespace actnet::sim

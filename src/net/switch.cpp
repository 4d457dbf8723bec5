#include "net/switch.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace actnet::net {

OutputQueuedSwitch::OutputQueuedSwitch(sim::Engine& engine,
                                       OutputQueuedConfig config, Rng rng)
    : engine_(engine), config_(config), rng_(rng) {
  ACTNET_CHECK(config_.routing_latency >= 0);
  ACTNET_CHECK(config_.jitter_mean_ns >= 0.0);
  ACTNET_CHECK(config_.tail_prob >= 0.0 && config_.tail_prob < 1.0);
}

Tick OutputQueuedSwitch::sample_stage_delay() {
  // Fixed pipeline latency + log-normal arbitration jitter + a rare
  // exponential-excess tail.
  Tick d = config_.routing_latency;
  if (config_.jitter_mean_ns > 0.0)
    d += units::ns(rng_.lognormal_by_moments(config_.jitter_mean_ns,
                                             config_.jitter_stddev_ns));
  if (config_.tail_prob > 0.0 && rng_.chance(config_.tail_prob))
    d += units::ns(config_.tail_offset_ns +
                   rng_.exponential(config_.tail_mean_excess_ns));
  return d;
}

Tick OutputQueuedSwitch::flowfwd_delay(const Packet& p) {
  const Tick d = sample_stage_delay();
  ++counters_.packets;
  counters_.bytes += p.size;
  counters_.time_in_switch += d;
  counters_.stage_latency_us.add(units::to_us(d));
  return d;
}

void OutputQueuedSwitch::route(const Packet& p, ForwardFn forward) {
  ACTNET_CHECK(forward);
  const Tick d = flowfwd_delay(p);
  // Park the record in the pool so the event closure stays inline.
  const std::uint32_t slot = pending_.put(PendingRoute{p, std::move(forward)});
  engine_.schedule_in(d, [this, slot] {
    PendingRoute r = pending_.take(slot);
    r.fwd(r.p);
  });
}

Tick SharedQueueSwitch::flowfwd_delay(const Packet&) {
  ACTNET_CHECK_MSG(false,
                   "flowfwd_delay on a shared-queue switch: the M/G/1 model "
                   "couples packets through busy_until_ and cannot be "
                   "fast-forwarded");
}

SharedQueueSwitch::SharedQueueSwitch(
    sim::Engine& engine,
    std::shared_ptr<const queueing::ServiceDistribution> service, Rng rng)
    : engine_(engine), service_(std::move(service)), rng_(rng) {
  ACTNET_CHECK(service_ != nullptr);
}

void SharedQueueSwitch::route(const Packet& p, ForwardFn forward) {
  ACTNET_CHECK(forward);
  const Tick now = engine_.now();
  const Tick start = std::max(now, busy_until_);
  const Tick service =
      std::max<Tick>(1, static_cast<Tick>(service_->sample(rng_)));
  busy_until_ = start + service;
  const Tick sojourn = busy_until_ - now;
  ++counters_.packets;
  counters_.bytes += p.size;
  counters_.time_in_switch += sojourn;
  counters_.stage_latency_us.add(units::to_us(sojourn));
  const std::uint32_t slot = pending_.put(PendingRoute{p, std::move(forward)});
  engine_.schedule_at(busy_until_, [this, slot] {
    PendingRoute r = pending_.take(slot);
    r.fwd(r.p);
  });
}

}  // namespace actnet::net

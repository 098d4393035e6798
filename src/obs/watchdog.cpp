#include "obs/watchdog.hpp"

#include <string>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aroma::obs {

std::string_view to_string(Watchdog w) {
  switch (w) {
    case Watchdog::kSimStall: return "watchdog.sim_stall";
    case Watchdog::kQueueDepth: return "watchdog.queue_depth";
    case Watchdog::kSpanDropSurge: return "watchdog.span_drop_surge";
    case Watchdog::kLeaseChurn: return "watchdog.lease_churn";
    case Watchdog::kRetryStorm: return "watchdog.retry_storm";
  }
  return "watchdog.?";
}

namespace {

// Details feed SpanIssueMiner's layer classifier (the "classify" arg below
// routes them through it), so each is phrased in the vocabulary of the LPC
// layer the anomaly belongs to.
std::string_view detail_for(Watchdog w) {
  switch (w) {
    case Watchdog::kSimStall:
      return "simulated clock stalled: runaway same-time event chain is "
             "starving the operating system scheduler";
    case Watchdog::kQueueDepth:
      return "pending event queue past watermark: memory pressure building "
             "in the protocol stack";
    case Watchdog::kSpanDropSurge:
      return "span buffer dropping records: diagnostics capped, "
             "troubleshooting data lost";
    case Watchdog::kLeaseChurn:
      return "lease churn storm: jini lookup service leases expiring "
             "faster than they renew";
    case Watchdog::kRetryStorm:
      return "mac retransmission storm: interference on the 2.4 ghz "
             "radio band";
  }
  return "";
}

}  // namespace

WatchdogSet::WatchdogSet(sim::World& world, WatchdogOptions options)
    : world_(world), options_(options) {}

std::uint64_t WatchdogSet::counter_value(const void** slot,
                                         std::string_view name) const {
  if (*slot == nullptr) {
    const MetricsRegistry* m = world_.metrics();
    if (m == nullptr) return 0;
    *slot = m->find_counter(name);
    if (*slot == nullptr) return 0;  // not created yet; retry next window
  }
  return static_cast<const Counter*>(*slot)->value();
}

void WatchdogSet::stall_fire(sim::Time when, std::uint64_t run_len) {
  fire(Watchdog::kSimStall, detail_for(Watchdog::kSimStall), when, run_len,
       options_.stall_run_limit);
}

void WatchdogSet::window_checks(sim::Time when) {
  next_window_ns_ = when.count() + options_.window.count();

  const std::size_t depth = world_.sim().pending();
  if (depth >= options_.queue_depth_limit) {
    if (queue_armed_) {
      queue_armed_ = false;  // re-arms when depth falls below the limit
      fire(Watchdog::kQueueDepth, detail_for(Watchdog::kQueueDepth), when,
           depth, options_.queue_depth_limit);
    }
  } else {
    queue_armed_ = true;
  }

  if (const SpanTracer* t = world_.spans()) {
    const std::uint64_t dropped = t->dropped();
    if (dropped - last_dropped_ >= options_.span_drop_surge) {
      fire(Watchdog::kSpanDropSurge, detail_for(Watchdog::kSpanDropSurge),
           when, dropped - last_dropped_, options_.span_drop_surge);
    }
    last_dropped_ = dropped;
  }

  const std::uint64_t churn =
      counter_value(&c_grants_, "disco.lease.grants") +
      counter_value(&c_expirations_, "disco.lease.expirations") +
      counter_value(&c_cancellations_, "disco.lease.cancellations");
  if (churn - last_churn_ >= options_.lease_churn_limit) {
    fire(Watchdog::kLeaseChurn, detail_for(Watchdog::kLeaseChurn), when,
         churn - last_churn_, options_.lease_churn_limit);
  }
  last_churn_ = churn;

  const std::uint64_t retries = counter_value(&c_retries_, "phys.mac.retries");
  if (retries - last_retries_ >= options_.retry_storm_limit) {
    fire(Watchdog::kRetryStorm, detail_for(Watchdog::kRetryStorm), when,
         retries - last_retries_, options_.retry_storm_limit);
  }
  last_retries_ = retries;
}

void WatchdogSet::fire(Watchdog which, std::string_view detail, sim::Time at,
                       std::uint64_t value, std::uint64_t limit) {
  std::uint64_t& count = fired_[static_cast<std::size_t>(which)];
  if (count >= options_.max_fires_each) return;
  ++count;
  const std::string_view name = to_string(which);
  fires_.push_back(WatchdogFire{which, at, value, limit});

  if (recorder_) {
    recorder_->record_watchdog(at, recorder_->intern(name), value, limit);
  }
  if (MetricsRegistry* m = world_.metrics()) {
    m->counter("obs.watchdog.fires", lpc::Layer::kResource).add();
  }
  // The emitting layer is a placeholder: the "classify" arg routes the
  // issue through SpanIssueMiner's IssueClassifier, which assigns the
  // layer from the detail text.
  if (SpanTracer* t = world_.spans()) {
    t->instant(at, name, lpc::Layer::kResource, 0, sim::TraceLevel::kWarn,
               {{"classify", std::string(detail)},
                {"value", std::to_string(value)},
                {"limit", std::to_string(limit)}});
  }
  if (hook_) hook_(fires_.back());
}

}  // namespace aroma::obs

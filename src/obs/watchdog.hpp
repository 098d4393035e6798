// Deterministic anomaly watchdogs.
//
// A WatchdogSet rides the kernel's trace slot via obs::FlightRecorder,
// which mirrors the stall-run counter and window deadline into the ring
// state and calls in here only when one trips. All thresholds are
// evaluated against simulated state — event timestamps, the pending-event
// count, telemetry counters — so whether (and exactly when) a watchdog
// fires is a pure function of the seed. Firing never schedules a
// kernel event; a fire emits a classified warning instant through the span
// tracer (mined into an lpc issue by SpanIssueMiner's layer classifier),
// stamps a record into the flight recorder, and invokes the dump hook so
// the owner can capture a black box of the moments leading up to the
// anomaly.
//
// Catalog:
//   kSimStall       same-timestamp event run exceeds stall_run_limit
//                   (a runaway zero-delay chain; simulated time has stalled)
//   kQueueDepth     pending-event queue crosses queue_depth_limit
//   kSpanDropSurge  span tracer dropped >= span_drop_surge records within
//                   one window (the trace is no longer trustworthy)
//   kLeaseChurn     discovery lease grant/expiry/cancel churn within one
//                   window reaches lease_churn_limit
//   kRetryStorm     MAC retransmissions within one window reach
//                   retry_storm_limit (e.g. an RF-jammed medium)
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "sim/profiler.hpp"
#include "sim/time.hpp"
#include "sim/world.hpp"

namespace aroma::obs {

class FlightRecorder;

enum class Watchdog : std::uint8_t {
  kSimStall = 0,
  kQueueDepth,
  kSpanDropSurge,
  kLeaseChurn,
  kRetryStorm,
};
inline constexpr std::size_t kWatchdogCount =
    static_cast<std::size_t>(Watchdog::kRetryStorm) + 1;

std::string_view to_string(Watchdog w);

struct WatchdogOptions {
  std::uint64_t stall_run_limit = 10000;
  std::size_t queue_depth_limit = 1 << 16;
  std::uint64_t span_drop_surge = 1;
  std::uint64_t lease_churn_limit = 16;
  std::uint64_t retry_storm_limit = 64;
  /// Cadence of the windowed checks (queue depth, deltas). Evaluated
  /// passively against event timestamps — never scheduled.
  sim::Time window = sim::Time::ms(250);
  /// A watchdog goes silent after this many fires (keeps a pathological
  /// run from flooding the issue log and the dump hook).
  std::uint64_t max_fires_each = 8;
};

struct WatchdogFire {
  Watchdog which = Watchdog::kSimStall;
  sim::Time at;
  std::uint64_t value = 0;  // observed
  std::uint64_t limit = 0;  // configured threshold
};

class WatchdogSet {
 public:
  explicit WatchdogSet(sim::World& world, WatchdogOptions options = {});
  WatchdogSet(const WatchdogSet&) = delete;
  WatchdogSet& operator=(const WatchdogSet&) = delete;

  /// Flight recorder that receives a record per fire (optional).
  void set_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  /// Called after every fire — the owner's chance to dump the flight
  /// recorder. Must not schedule kernel events.
  void set_dump_hook(std::function<void(const WatchdogFire&)> hook) {
    hook_ = std::move(hook);
  }

  const WatchdogOptions& options() const { return options_; }
  const std::vector<WatchdogFire>& fires() const { return fires_; }
  std::uint64_t fired(Watchdog w) const {
    return fired_[static_cast<std::size_t>(w)];
  }
  std::uint64_t total_fired() const { return fires_.size(); }

 private:
  // The flight recorder mirrors the stall-run counter and window deadline
  // into the kernel's hot trace state so the per-event write stays on one
  // cache line; it calls back in here only when a threshold actually trips.
  friend class FlightRecorder;

  void stall_fire(sim::Time when, std::uint64_t run_len);
  void window_checks(sim::Time when);
  void fire(Watchdog which, std::string_view detail, sim::Time at,
            std::uint64_t value, std::uint64_t limit);
  /// Registry handles are deque-stable, so each watched counter is looked
  /// up by name only until it first exists; afterwards every window reads
  /// the cached pointer.
  std::uint64_t counter_value(const void** slot, std::string_view name) const;

  sim::World& world_;
  WatchdogOptions options_;
  FlightRecorder* recorder_ = nullptr;
  std::function<void(const WatchdogFire&)> hook_;

  std::int64_t next_window_ns_ = 0;

  std::uint64_t last_dropped_ = 0;
  std::uint64_t last_churn_ = 0;
  std::uint64_t last_retries_ = 0;
  bool queue_armed_ = true;

  // Cached Counter pointers (see counter_value).
  const void* c_grants_ = nullptr;
  const void* c_expirations_ = nullptr;
  const void* c_cancellations_ = nullptr;
  const void* c_retries_ = nullptr;

  std::array<std::uint64_t, kWatchdogCount> fired_{};
  std::vector<WatchdogFire> fires_;
};

}  // namespace aroma::obs

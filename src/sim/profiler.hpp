// Deterministic kernel profiler: per-category executed-event accounting.
//
// Every scheduled event carries a small category tag. Components stamp
// their events either explicitly (schedule_at/in overloads) or implicitly:
// while an event executes, the kernel sets the current category to the
// event's own, so follow-up events scheduled from inside a callback inherit
// their cause's category (a MAC backoff chain stays kMac with one stamp at
// the top).
//
// Executed counts are a pure function of the seed — they belong in
// BENCH_kernel.json and can be regressed exactly. Wall-time attribution is
// optional (enable_timing) because reading the clock per event costs more
// than many callbacks themselves; it is for interactive profiling, never
// for regressed artifacts.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace aroma::sim {

enum class EventCategory : std::uint8_t {
  kNone = 0,    // unstamped
  kTimer,       // PeriodicTimer re-arms
  kMac,         // CSMA/CA state machine (DIFS, backoff, ACK timers)
  kRadio,       // medium frame-end delivery scans
  kStream,      // reliable stream segment pacing
  kLease,       // lease-expiry checks
  kDiscovery,   // discovery protocol retries/announcements
  kRfb,         // remote framebuffer encode completion
  kDiag,        // health probes and fault toggles
  kApp,         // application/session logic
  kOther,
};
inline constexpr std::size_t kEventCategoryCount =
    static_cast<std::size_t>(EventCategory::kOther) + 1;

std::string_view to_string(EventCategory category);

/// Collects per-category counts (and optionally wall seconds) for one
/// Simulator. Plain data; attach via Simulator::set_profiler.
class KernelProfiler {
 public:
  struct CategoryStats {
    std::uint64_t executed = 0;
    std::uint64_t absorbed = 0;  // subset of executed popped off a train
    double wall_sec = 0.0;       // only accumulated while timing_enabled()
  };

  void enable_timing(bool on) { timing_ = on; }
  bool timing_enabled() const { return timing_; }

  /// Counts one executed event, split into absorbed (popped off a
  /// same-time train, O(1)) vs dispatched (heap pop). Absorbed counts are
  /// deterministic like executed counts and regress in BENCH_kernel.json.
  void record_execute(EventCategory c, bool absorbed) {
    CategoryStats& s = stats_[index(c)];
    ++s.executed;
    if (absorbed) ++s.absorbed;
  }
  void record_wall(EventCategory c, double sec) {
    stats_[index(c)].wall_sec += sec;
  }

  const CategoryStats& stats(EventCategory c) const {
    return stats_[index(c)];
  }

 private:
  static std::size_t index(EventCategory c) {
    const auto i = static_cast<std::size_t>(c);
    return i < kEventCategoryCount ? i : kEventCategoryCount - 1;
  }

  std::array<CategoryStats, kEventCategoryCount> stats_{};
  bool timing_ = false;
};

}  // namespace aroma::sim

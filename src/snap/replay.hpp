// ReplayHarness — records the post-checkpoint executed-event stream and
// binary-searches the first diverging event between two runs.
//
// Determinism debugging needs more than "the fingerprints differ": it needs
// the exact event where two supposedly-identical runs first disagree. The
// harness consumes the kernel's inline trace ring (the one per-event
// observation slot, see sim/simulator.hpp) and records each executed
// event's identity (when, id, seq) together with a running prefix hash.
// Because the hash chain is cumulative, prefix i of two recordings
// matches iff their hashes at i match — so the first divergence
// is found with a binary search over the prefix hashes, O(log n) hash
// compares instead of an O(n) element scan, and the recordings themselves
// pinpoint the offending event.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "sim/simulator.hpp"

namespace aroma::snap {

/// The identity of one executed event. (when, seq) is the kernel's total
/// order; id ties the event back to its schedule call.
struct EventId {
  sim::Time when;
  std::uint64_t id = 0;
  std::uint64_t seq = 0;

  bool operator==(const EventId&) const = default;
};

/// The verdict of first_divergence().
struct Divergence {
  bool diverged = false;
  /// Index of the first differing event; == min(length) when one recording
  /// is a strict prefix of the other.
  std::size_t index = 0;
  /// True when the streams agree on their common prefix but have different
  /// lengths (a missing/extra tail, not a reordering).
  bool length_mismatch = false;
  std::optional<EventId> expected;  // event at `index` in the reference
  std::optional<EventId> actual;    // event at `index` in the candidate
};

class ReplayHarness final : public sim::Simulator::TraceSlowPath {
 public:
  ReplayHarness() = default;
  // The kernel holds pointers into an attached harness.
  ReplayHarness(const ReplayHarness&) = delete;
  ReplayHarness& operator=(const ReplayHarness&) = delete;

  /// Starts recording every event `sim` executes by taking its trace slot.
  /// Throws std::logic_error while another consumer (an
  /// obs::FlightRecorder, another harness) holds the slot.
  void attach(sim::Simulator& sim);
  /// Stops recording and frees the slot if this harness holds it. The
  /// recording is kept for comparison.
  void detach(sim::Simulator& sim);

  // sim::Simulator::TraceSlowPath. The wake deadline sits at the int64
  // minimum, so the kernel calls on_trace_wake after writing each event's
  // record into the one-record ring; the harness appends it there.
  void on_trace_stall(sim::Time, std::uint64_t) override {}
  void on_trace_wake(sim::Time when) override {
    record(when, last_.a, last_.b);
  }

  void clear();

  const std::vector<EventId>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Hash of the whole recorded stream (equal streams => equal hashes).
  std::uint64_t stream_hash() const;
  /// Hash of the first `n` events.
  std::uint64_t prefix_hash(std::size_t n) const;

  /// Locates the first event where `actual` departs from `expected`, by
  /// binary search over the cumulative prefix hashes.
  static Divergence first_divergence(const ReplayHarness& expected,
                                     const ReplayHarness& actual);

 private:
  void record(sim::Time when, std::uint64_t id, std::uint64_t seq);

  // The kernel writes each executed event into this one-record ring.
  sim::Simulator::TraceRecord last_;
  sim::Simulator::TraceHot hot_{
      .ring = &last_,
      .mask = 0,
      .next_wake_ns = std::numeric_limits<std::int64_t>::min(),
      .slow = this};
  std::vector<EventId> events_;
  // prefix_hashes_[i] = hash of events_[0..i]; one entry per event.
  std::vector<std::uint64_t> prefix_hashes_;
};

}  // namespace aroma::snap

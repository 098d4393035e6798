// Flight recorder: a fixed-capacity POD ring buffer of recent activity,
// dumpable as a versioned binary black box.
//
// The recorder is the observability plane's kernel attachment point: it
// lends its ring to the kernel's inline trace slot (Simulator::TraceHot),
// so every executed event writes one 32-byte record into the ring (a store
// and an increment — near-zero steady-state cost), and stall/wake
// thresholds call back into the attached watchdogs and timeseries
// sampler. Metric deltas arrive via the sampler, and dumps merge in the
// span edges of the ring's time window from the span source, so a black
// box interleaves the last N kernel events with what the components were
// doing at the time.
//
// Everything in the ring is driven by simulated behavior, so the ring
// contents — and any dump — are a deterministic function of the seed, and
// attaching the recorder never changes the executed-event stream (the
// trace slot is observation-only; see simulator.hpp).
//
// A dump is a snap container (same magic/CRC framing as checkpoints) with
// flight-specific sections, bundling the latest full checkpoint blob the
// owner handed to note_checkpoint(). That makes a dump self-contained for
// post-mortem time travel: restore the embedded checkpoint into a fresh
// warmed-up scn::ScenarioInstance of the same scenario, shard and seed,
// attach a snap::ReplayHarness, run forward, and the faulting event
// (identified by its (when, id, seq) ring record) is reached bit-exactly.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/watchdog.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "snap/format.hpp"

namespace aroma::obs {

/// Dump section tags (snap container four-character codes).
inline constexpr std::uint32_t kTagFlightHeader = snap::tag4("FLTH");
inline constexpr std::uint32_t kTagFlightNames = snap::tag4("FLTN");
inline constexpr std::uint32_t kTagFlightRecords = snap::tag4("FLTR");
inline constexpr std::uint32_t kTagFlightCheckpoint = snap::tag4("FLTC");

inline constexpr std::uint32_t kFlightDumpVersion = 1;

enum class FlightKind : std::uint16_t {
  kKernelEvent = 0,  // code = EventCategory, a = event id, b = seq
  kSpanOpen,         // code = interned name, a = span id, b = parent
  kSpanClose,        //   "
  kSpanInstant,      //   "
  kMetricDelta,      // code = interned name, a = value, b = previous value
  kWatchdog,         // code = interned name, a = observed, b = limit
  kCheckpoint,       // code = 0, a = checkpoint id
  kMarker,           // code = interned name
};

std::string_view to_string(FlightKind kind);

// One record layout for the whole plane: the kernel's inline trace ring
// writes kind-0 (kernel event) records directly (see Simulator::TraceHot);
// the recorder adds span/metric/watchdog/checkpoint/marker kinds on top.
using FlightRecord = sim::Simulator::TraceRecord;
static_assert(std::is_trivially_copyable_v<FlightRecord> &&
                  sizeof(FlightRecord) == 32,
              "flight records are fixed 32-byte POD");

class FlightRecorder final : public sim::Simulator::TraceSlowPath {
 public:
  /// `capacity` is rounded up to a power of two so the hot-path ring index
  /// is a mask, not a division.
  explicit FlightRecorder(std::size_t capacity = 1 << 12,
                          std::uint32_t shard = 0);

  /// Attaches to the kernel's inline trace ring: the simulator writes the
  /// per-event record and maintains the stall/wake mirrors itself, with no
  /// virtual hop; this recorder is called back (TraceSlowPath) only when a
  /// stall run or wake deadline actually trips. The slot has one owner:
  /// throws std::logic_error while another consumer (a second recorder, a
  /// snap::ReplayHarness) holds it. detach() clears only this recorder.
  void attach(sim::Simulator& sim) { sim.attach_event_trace(&hot_); }
  void detach(sim::Simulator& sim) { sim.detach_event_trace(&hot_); }

  // sim::Simulator::TraceSlowPath — rare-threshold callbacks from the
  // kernel's inline ring writer.
  void on_trace_stall(sim::Time when, std::uint64_t run_len) override {
    watchdogs_->stall_fire(when, run_len);
  }
  void on_trace_wake(sim::Time when) override { wake(when); }

  void set_watchdogs(WatchdogSet* w) {
    watchdogs_ = w;
    hot_.stall_run_limit =
        w ? w->options().stall_run_limit : ~std::uint64_t{0};
    refresh_wake();
  }
  void set_sampler(TimeseriesSampler* s) {
    sampler_ = s;
    refresh_wake();
  }

  /// Name interning: record codes index this table (stable for the
  /// recorder's lifetime, serialized into dumps). Callers pass the same
  /// few short names over and over — but not always through the same
  /// pointer (SpanRecord names are std::strings), so the cache is
  /// content-keyed: a tiny hash of (size, first, last) picks a slot and a
  /// memcmp confirms it. A miss falls back to the map and refreshes the
  /// slot with a pointer into the map's stable key storage.
  std::uint16_t intern(std::string_view name) {
    const InternSlot& slot = intern_cache_[intern_slot(name)];
    if (slot.size == name.size() && slot.data != nullptr &&
        std::memcmp(slot.data, name.data(), name.size()) == 0) {
      return slot.code;
    }
    return intern_slow(name);
  }
  const std::vector<std::string>& names() const { return names_; }

  // Non-kernel sources.
  void record_metric(sim::Time now, std::uint16_t code, std::uint64_t value,
                     std::uint64_t previous);
  void record_watchdog(sim::Time now, std::uint16_t code, std::uint64_t value,
                       std::uint64_t limit);
  void record_marker(sim::Time now, std::string_view name);

  /// Span-edge source for dumps. The tracer already buffers every span it
  /// admits, so rather than paying a per-edge live feed on the hot path,
  /// the recorder points at the tracer and dump() reconstructs the
  /// open/close/instant edges overlapping the ring's time window and
  /// merges them chronologically into the record section — the
  /// steady-state cost is zero.
  void set_span_source(const SpanTracer* spans) { span_source_ = spans; }

  /// Remembers the latest full checkpoint of the observed world; every
  /// subsequent dump embeds it (and a kCheckpoint ring record marks the
  /// instant). Pass the blob by value — the recorder owns its copy.
  void note_checkpoint(std::uint64_t checkpoint_id, sim::Time captured_at,
                       std::vector<std::uint8_t> blob);
  bool has_checkpoint() const { return !checkpoint_blob_.empty(); }

  /// Serializes the black box: header, name table, ring contents (oldest
  /// first, span edges from the span source merged in), and the latest
  /// checkpoint (when one was noted). Non-const: merged span names are
  /// interned into the dump's name table.
  std::vector<std::uint8_t> dump(std::string_view reason);

  // Ring introspection.
  std::size_t capacity() const { return capacity_; }
  /// Records ever pushed; min(total, capacity) survive in the ring.
  std::uint64_t total() const { return hot_.total; }
  std::size_t size() const {
    return hot_.total < capacity_ ? static_cast<std::size_t>(hot_.total)
                                   : capacity_;
  }
  /// Chronological copy of the live ring contents (oldest first).
  std::vector<FlightRecord> snapshot() const;

  /// Appends `other`'s ring contents with `shard_id` stamped on every
  /// record and name codes re-interned into this recorder's table.
  /// Appending shards in shard order yields one deterministic fleet
  /// recorder regardless of worker count.
  void append_shard(const FlightRecorder& other, std::uint32_t shard_id);

 private:
  static constexpr std::size_t kInternCacheSize = 64;
  struct InternSlot {
    const char* data = nullptr;
    std::size_t size = 0;
    std::uint16_t code = 0;
  };
  static std::size_t intern_slot(std::string_view name) {
    std::size_t h = name.size();
    if (!name.empty()) {
      h = h * 31 + static_cast<unsigned char>(name.front()) * 7 +
          static_cast<unsigned char>(name.back());
    }
    return h & (kInternCacheSize - 1);
  }

  FlightRecord& push();
  std::uint16_t intern_slow(std::string_view name);
  std::vector<FlightRecord> span_edges(std::int64_t t0, std::int64_t t1);
  /// A deadline crossed: runs due watchdog window checks / sampler ticks,
  /// then recomputes next_wake_ns_. Out of line — rare by construction.
  void wake(sim::Time when);
  void refresh_wake();

  // Ring storage is 64-byte aligned so a 32-byte record never straddles a
  // cache line (a vector only guarantees 16); two records share each line.
  struct AlignedDelete {
    void operator()(FlightRecord* p) const {
      ::operator delete(p, std::align_val_t{64});
    }
  };
  std::unique_ptr<FlightRecord[], AlignedDelete> ring_;
  std::size_t capacity_ = 0;
  // The kernel-shared hot descriptor: ring pointer/mask, push counter,
  // stall-run mirror, and the unified wake deadline (min of the watchdog
  // window edge and the sampler due instant).
  sim::Simulator::TraceHot hot_;
  WatchdogSet* watchdogs_ = nullptr;
  TimeseriesSampler* sampler_ = nullptr;
  const SpanTracer* span_source_ = nullptr;

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint16_t> name_ids_;
  InternSlot intern_cache_[kInternCacheSize];

  std::uint64_t checkpoint_id_ = 0;
  sim::Time checkpoint_at_ = sim::Time::zero();
  std::vector<std::uint8_t> checkpoint_blob_;
};

/// A parsed black box. Structural problems throw snap::SnapError.
struct FlightDump {
  std::uint32_t version = 0;
  std::uint32_t shard = 0;
  std::string reason;
  std::uint64_t capacity = 0;
  std::uint64_t total = 0;
  std::vector<std::string> names;
  std::vector<FlightRecord> records;  // oldest first
  bool has_checkpoint = false;
  std::uint64_t checkpoint_id = 0;
  std::int64_t checkpoint_at_ns = 0;
  std::vector<std::uint8_t> checkpoint;

  static FlightDump parse(std::span<const std::uint8_t> blob);

  /// The last kernel-event record at or before `t_ns` — the event a replay
  /// should be driven to when diagnosing a fire at `t_ns`.
  const FlightRecord* last_kernel_event_at_or_before(std::int64_t t_ns) const;
};

}  // namespace aroma::obs

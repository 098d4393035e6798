// Causal span tracing with sim-time clocks.
//
// A span is a named interval (or instant) on an LPC layer, linked to the
// span that caused it. Causality crosses scheduled-event boundaries via the
// kernel's trace context: the span id active when an event is scheduled is
// stamped on the event and restored while it executes, so a span begun
// inside a MAC receive event parents to the frame that carried it — across
// net -> disco -> app hops — with no context threaded through any API.
//
// Records are structured (name, layer, level, key-value args) and are the
// one path by which a component reports a layer-relevant warning; the LPC
// issue miner consumes them through the hook. Exporters serialize them as
// JSONL and as Chrome trace-event JSON loadable in Perfetto (see
// obs/export.hpp), and flight-recorder dumps rebuild span edges from the
// buffer (FlightRecorder::set_span_source). The record buffer is
// capacity-capped with a drop counter so soak runs cannot OOM.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lpc/layers.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::obs {

using SpanId = std::uint64_t;  // 0 = none/dropped

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;
  sim::Time start;
  sim::Time end;  // == Time::max() while open
  std::string name;
  lpc::Layer layer = lpc::Layer::kEnvironment;
  sim::TraceLevel level = sim::TraceLevel::kInfo;
  bool instant = false;
  std::vector<std::pair<std::string, std::string>> args;

  bool open() const { return !instant && end == sim::Time::max(); }
  sim::Time duration() const {
    return open() ? sim::Time::zero() : end - start;
  }
};

/// Span sink. Ids are sequential from 1, timestamps are simulated time, and
/// every mutation is driven by simulated behavior — records are a
/// deterministic function of the seed.
class SpanTracer {
 public:
  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Caps the record buffer; further spans are counted in dropped()
  /// instead of stored (instants still reach the hook, so miners keep
  /// working past the cap).
  void set_capacity(std::size_t cap) { capacity_ = cap; }
  std::uint64_t dropped() const { return dropped_; }

  /// Opens a span. Returns 0 (a safe no-op id) when disabled or at
  /// capacity.
  SpanId begin(sim::Time now, std::string_view name, lpc::Layer layer,
               SpanId parent, sim::TraceLevel level = sim::TraceLevel::kInfo);
  /// Closes an open span; no-op for 0 or unknown ids.
  void end(SpanId id, sim::Time now);
  /// Zero-duration structured event.
  SpanId instant(sim::Time now, std::string_view name, lpc::Layer layer,
                 SpanId parent,
                 sim::TraceLevel level = sim::TraceLevel::kInfo);
  /// As above with args attached atomically, so the hook (and any miner
  /// behind it) sees them — annotate() after instant() is too late for
  /// hook consumers.
  SpanId instant(sim::Time now, std::string_view name, lpc::Layer layer,
                 SpanId parent, sim::TraceLevel level,
                 std::vector<std::pair<std::string, std::string>> args);
  /// Attaches a key-value argument to a live record; no-op for id 0.
  void annotate(SpanId id, std::string_view key, std::string_view value);

  /// Sees every record as it is created (instants) or closed (spans) —
  /// the structured feed the LPC issue miner consumes.
  void set_hook(std::function<void(const SpanRecord&)> hook) {
    hook_ = std::move(hook);
  }

  /// Appends every record of `other` with its id (and nonzero parent)
  /// relocated into a per-shard id space:
  ///   id' = ((shard_id + 1) << kShardIdShift) | id.
  /// Parent links are remapped identically, so causal chains survive the
  /// merge intact, and records from different shards can never collide as
  /// long as a shard emits fewer than 2^kShardIdShift spans. Appending
  /// shards in shard order makes the merged buffer deterministic for any
  /// worker count. Respects this tracer's capacity (overflow counts into
  /// dropped()); intended for a fresh, export-only sink.
  void append_shard(const SpanTracer& other, std::uint64_t shard_id);
  static constexpr unsigned kShardIdShift = 40;

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // The whole record buffer round-trips (ids, parents, timestamps, args).
  // Spans still open at the checkpoint survive and are annotated
  // restored=true, marking that their interval straddles a restore. The
  // hook is structural and untouched.
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

  const std::vector<SpanRecord>& records() const { return records_; }
  const SpanRecord* find(SpanId id) const;
  std::size_t count_with_name(std::string_view name) const;
  /// Walks parent links from `id` to the root, returning the chain
  /// (including `id` itself, nearest first). Missing ids end the walk.
  std::vector<const SpanRecord*> ancestry(SpanId id) const;
  void clear();

 private:
  bool enabled_ = true;
  std::size_t capacity_ = 1 << 20;
  std::uint64_t dropped_ = 0;
  SpanId next_id_ = 1;
  std::vector<SpanRecord> records_;
  std::unordered_map<SpanId, std::size_t> index_;  // id -> records_ index
  std::function<void(const SpanRecord&)> hook_;
};

/// RAII span bound to a world: opens on construction (parenting to the
/// kernel's current trace context), routes the context to itself so nested
/// spans and scheduled events inherit it, and restores everything on
/// destruction. When no tracer is attached the cost is one null check.
class ScopedSpan {
 public:
  ScopedSpan(sim::World& world, std::string_view name, lpc::Layer layer,
             sim::TraceLevel level = sim::TraceLevel::kInfo)
      : world_(world) {
    SpanTracer* t = world.spans();
    if (t == nullptr || !t->enabled()) return;
    tracer_ = t;
    prev_ctx_ = world.sim().trace_context();
    id_ = t->begin(world.now(), name, layer, prev_ctx_, level);
    world.sim().set_trace_context(id_);
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    world_.sim().set_trace_context(prev_ctx_);
    tracer_->end(id_, world_.now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return tracer_ != nullptr && id_ != 0; }
  SpanId id() const { return id_; }
  void annotate(std::string_view key, std::string_view value) {
    if (tracer_) tracer_->annotate(id_, key, value);
  }

 private:
  sim::World& world_;
  SpanTracer* tracer_ = nullptr;
  SpanId id_ = 0;
  std::uint64_t prev_ctx_ = 0;
};

/// Instant helper mirroring ScopedSpan's null-safety: one check when off.
inline SpanId emit_instant(sim::World& world, std::string_view name,
                           lpc::Layer layer,
                           sim::TraceLevel level = sim::TraceLevel::kInfo) {
  SpanTracer* t = world.spans();
  if (t == nullptr || !t->enabled()) return 0;
  return t->instant(world.now(), name, layer, world.sim().trace_context(),
                    level);
}

}  // namespace aroma::obs

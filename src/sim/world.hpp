// A World bundles the services every simulated component needs: the event
// kernel, the root RNG, the frame arena, and the (optional) telemetry sinks.
#pragma once

#include <cstdint>

#include "sim/arena.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace aroma::obs {
class MetricsRegistry;
class SpanTracer;
}  // namespace aroma::obs

namespace aroma::sim {

/// One self-contained simulated world. All higher-layer objects hold a
/// reference to the World that owns their time base; the World must outlive
/// them. Worlds are cheap to create — one per trial.
class World {
 public:
  explicit World(std::uint64_t seed = 1) : rng_(seed) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  Rng& rng() { return rng_; }

  Time now() const { return sim_.now(); }

  /// Derives an independent RNG stream for a named subsystem.
  Rng fork_rng(std::uint64_t tag) { return rng_.fork(tag); }

  /// The world's frame/event arena (see sim/arena.hpp). Hot-path producers
  /// (MAC frames, datagrams, the radio medium's transmission log) allocate
  /// here instead of the global heap; per-world ownership means fleet shards
  /// never contend on one allocator. Allocation strategy never affects
  /// simulated behavior.
  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }

  // --- telemetry (obs) ------------------------------------------------------
  // Non-owning: obs::Telemetry attaches/detaches these (see
  // obs/telemetry.hpp). Null means telemetry is off, and producers reduce
  // to a single pointer check; sim itself never dereferences them, so sim
  // stays below obs in the build graph.
  obs::MetricsRegistry* metrics() const { return metrics_; }
  obs::SpanTracer* spans() const { return spans_; }
  void set_metrics(obs::MetricsRegistry* m) { metrics_ = m; }
  void set_spans(obs::SpanTracer* s) { spans_ = s; }

 private:
  // Declared first so it is destroyed last: pending callbacks, queued MAC
  // frames, and in-flight payload control blocks all recycle into it on
  // their way down.
  Arena arena_;
  Simulator sim_;
  Rng rng_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanTracer* spans_ = nullptr;
};

}  // namespace aroma::sim

// The telemetry bundle: one MetricsRegistry + one SpanTracer, attachable to
// any number of sequential sim::Worlds.
//
// Attach BEFORE constructing components on a world: components resolve
// their metric handles at construction. Telemetry must outlive everything
// that resolved handles from it. Detaching (or destroying the bundle) puts
// the world back in the zero-cost disabled state.
#pragma once

#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/world.hpp"

namespace aroma::obs {

struct TelemetryOptions {
  /// False leaves every attached world's spans() null, so no span is
  /// recorded; the registry still attaches.
  bool spans = true;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = {});
  /// Attaches to `world` on construction.
  explicit Telemetry(sim::World& world, TelemetryOptions options = {});
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  void attach(sim::World& world);
  void detach(sim::World& world);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  SpanTracer& spans() { return spans_; }
  const SpanTracer& spans() const { return spans_; }

  /// Pulls the kernel's counters for `world` into the registry
  /// (sim.kernel.* gauges). Call before snapshotting.
  void snapshot_kernel(const sim::World& world);

 private:
  TelemetryOptions options_;
  MetricsRegistry metrics_;
  SpanTracer spans_;
  std::vector<sim::World*> attached_;
};

}  // namespace aroma::obs

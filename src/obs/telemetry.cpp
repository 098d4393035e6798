#include "obs/telemetry.hpp"

#include <algorithm>

namespace aroma::obs {

Telemetry::Telemetry(TelemetryOptions options) : options_(options) {}

Telemetry::Telemetry(sim::World& world, TelemetryOptions options)
    : Telemetry(options) {
  attach(world);
}

Telemetry::~Telemetry() {
  while (!attached_.empty()) detach(*attached_.back());
}

void Telemetry::attach(sim::World& world) {
  world.set_metrics(&metrics_);
  if (options_.spans) world.set_spans(&spans_);
  attached_.push_back(&world);
}

void Telemetry::detach(sim::World& world) {
  if (world.metrics() == &metrics_) world.set_metrics(nullptr);
  if (world.spans() == &spans_) world.set_spans(nullptr);
  attached_.erase(std::remove(attached_.begin(), attached_.end(), &world),
                  attached_.end());
}

void Telemetry::snapshot_kernel(const sim::World& world) {
  const sim::Simulator& s = world.sim();
  // Kernel execution is a Resource-layer concern in the LPC model ("Exe").
  const lpc::Layer layer = lpc::Layer::kResource;
  metrics_.set_counter("sim.kernel.executed", layer, s.executed());
  metrics_.set_gauge("sim.kernel.peak_pending", layer,
                     static_cast<double>(s.peak_pending()));
  metrics_.set_gauge("sim.kernel.pending", layer,
                     static_cast<double>(s.pending()));
  metrics_.set_counter("sim.kernel.cancelled", layer, s.cancelled());
  metrics_.set_counter("sim.kernel.stale_handle_rejects", layer,
                       s.stale_handle_rejects());
  // Observability self-accounting: a capped span buffer silently truncates
  // traces, so the drop count must be visible wherever metrics land.
  metrics_.set_counter("obs.spans.records", layer, spans_.records().size());
  metrics_.set_counter("obs.spans.dropped", layer, spans_.dropped());
}

}  // namespace aroma::obs

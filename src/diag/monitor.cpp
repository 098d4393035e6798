#include "diag/monitor.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aroma::diag {

std::string_view to_string(Health health) {
  switch (health) {
    case Health::kHealthy: return "healthy";
    case Health::kDegraded: return "degraded";
    case Health::kFailed: return "failed";
  }
  return "?";
}

HealthMonitor::HealthMonitor(sim::World& world)
    : HealthMonitor(world, Params{}) {}

HealthMonitor::HealthMonitor(sim::World& world, Params params)
    : world_(world), params_(params) {
  timer_ = std::make_unique<sim::PeriodicTimer>(
      world_.sim(), params_.interval, [this] { tick(); });
  timer_->set_category(sim::EventCategory::kDiag);
  m_samples_ =
      obs::counter(world_, "diag.monitor.samples", lpc::Layer::kIntentional);
  m_transitions_ = obs::counter(world_, "diag.monitor.transitions",
                                lpc::Layer::kIntentional);
}

void HealthMonitor::add_probe(Probe probe) {
  probes_.push_back(std::move(probe));
}

void HealthMonitor::add_threshold_probe(std::string name, lpc::Layer layer,
                                        std::function<double()> metric,
                                        double degraded_at,
                                        double failed_at) {
  Probe p;
  p.name = std::move(name);
  p.layer = layer;
  p.sample = [this, metric = std::move(metric), degraded_at, failed_at] {
    const double v = metric();
    Health h = Health::kHealthy;
    if (v >= failed_at) {
      h = Health::kFailed;
    } else if (v >= degraded_at) {
      h = Health::kDegraded;
    }
    return ProbeSample{world_.now(), h, v};
  };
  probes_.push_back(std::move(p));
}

void HealthMonitor::start() { timer_->start_after(params_.interval); }
void HealthMonitor::stop() { timer_->stop(); }

void HealthMonitor::tick() {
  for (const Probe& p : probes_) {
    const ProbeSample sample = p.sample();
    ++samples_taken_;
    if (m_samples_) m_samples_->add();
    if (params_.history_limit > 0) {
      std::deque<ProbeSample>& h = history_[p.name];
      h.push_back(sample);
      while (h.size() > params_.history_limit) h.pop_front();
    }
    auto it = latest_.find(p.name);
    const Health prev =
        it != latest_.end() ? it->second.health : Health::kHealthy;
    latest_[p.name] = sample;
    if (sample.health != prev) {
      if (m_transitions_) m_transitions_->add();
      if (obs::SpanTracer* t = world_.spans()) {
        const obs::SpanId id = t->instant(
            world_.now(), "diag.monitor.transition", p.layer,
            world_.sim().trace_context(),
            sample.health > prev ? sim::TraceLevel::kWarn
                                 : sim::TraceLevel::kInfo);
        t->annotate(id, "probe", p.name);
        t->annotate(id, "from", to_string(prev));
        t->annotate(id, "to", to_string(sample.health));
      }
      if (on_transition_) on_transition_(p.name, prev, sample.health);
    }
  }
}

const std::deque<ProbeSample>& HealthMonitor::history(
    const std::string& probe) const {
  static const std::deque<ProbeSample> kEmpty;
  auto it = history_.find(probe);
  return it != history_.end() ? it->second : kEmpty;
}

Health HealthMonitor::health_of(const std::string& probe) const {
  auto it = latest_.find(probe);
  return it != latest_.end() ? it->second.health : Health::kHealthy;
}

Health HealthMonitor::worst_health() const {
  Health worst = Health::kHealthy;
  for (const auto& [name, s] : latest_) {
    worst = std::max(worst, s.health);
  }
  return worst;
}

std::vector<std::pair<std::string, lpc::Layer>> HealthMonitor::unhealthy(
    Health at_least) const {
  std::vector<std::pair<std::string, lpc::Layer>> out;
  for (const Probe& p : probes_) {
    auto it = latest_.find(p.name);
    if (it != latest_.end() && it->second.health >= at_least) {
      out.emplace_back(p.name, p.layer);
    }
  }
  return out;
}

}  // namespace aroma::diag

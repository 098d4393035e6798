#include "phys/battery.hpp"

#include <algorithm>

#include "obs/span.hpp"
#include "snap/format.hpp"

namespace aroma::phys {

void Battery::apply_idle() {
  const sim::Time now = world_.now();
  if (now > last_update_) {
    const double dt = (now - last_update_).seconds();
    level_j_ = std::max(0.0, level_j_ - p_.idle_power_w * dt);
    last_update_ = now;
  }
  notify_if_depleted();
}

double Battery::level_j() {
  apply_idle();
  return level_j_;
}

double Battery::fraction() {
  return p_.capacity_j > 0.0 ? level_j() / p_.capacity_j : 0.0;
}

bool Battery::depleted() { return level_j() <= 0.0; }

void Battery::drain(double joules) {
  apply_idle();
  level_j_ = std::max(0.0, level_j_ - joules);
  notify_if_depleted();
}

void Battery::notify_if_depleted() {
  if (level_j_ > 0.0 || notified_) return;
  notified_ = true;
  obs::emit_instant(world_, "phys.battery.depleted", lpc::Layer::kPhysical,
                    sim::TraceLevel::kError);
  if (on_depleted_) on_depleted_();
}

void Battery::save(snap::SectionWriter& w) const {
  w.f64(level_j_);
  w.time_delta(last_update_);
  w.b(notified_);
}

void Battery::restore(snap::SectionReader& r) {
  level_j_ = r.f64();
  last_update_ = r.time_delta();
  notified_ = r.b();
}

double estimate_lifetime_s(const Battery::Params& p, double tx_frac,
                           double rx_frac) {
  const double avg_w = p.idle_power_w + p.tx_power_w * tx_frac +
                       p.rx_power_w * rx_frac;
  return avg_w > 0.0 ? p.capacity_j / avg_w : 0.0;
}

}  // namespace aroma::phys

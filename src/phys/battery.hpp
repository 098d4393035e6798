// Energy model for battery-powered pervasive devices.
#pragma once

#include <functional>

#include "sim/world.hpp"

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::phys {

/// Tracks stored energy and drains it from idle load plus explicit events
/// (radio transmit/receive). Energy is integrated lazily: the idle drain is
/// applied whenever the battery is observed.
class Battery {
 public:
  struct Params {
    double capacity_j = 10'000.0;   // ~ a small Li-ion pack
    double idle_power_w = 0.5;
    double tx_power_w = 1.2;        // extra draw while transmitting
    double rx_power_w = 0.8;        // extra draw while receiving
  };

  Battery(sim::World& world, Params p)
      : world_(world), p_(p), level_j_(p.capacity_j),
        last_update_(world.now()) {}

  /// Remaining energy in joules (applies idle drain up to now).
  double level_j();
  /// Remaining fraction in [0, 1].
  double fraction();
  bool depleted();

  /// Drains the cost of transmitting for `duration` seconds.
  void drain_tx(double seconds) { drain(p_.tx_power_w * seconds); }
  void drain_rx(double seconds) { drain(p_.rx_power_w * seconds); }
  /// Drains an arbitrary amount (display, compute, ...).
  void drain(double joules);

  /// Invoked once when the battery first reaches empty.
  void set_depleted_callback(std::function<void()> cb) {
    on_depleted_ = std::move(cb);
  }

  const Params& params() const { return p_; }

  // --- checkpoint/restore ---------------------------------------------------
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  void apply_idle();
  /// Fires the one-shot depletion signal (span instant + callback) the
  /// first time the level reaches zero, whichever path drained it.
  void notify_if_depleted();

  sim::World& world_;
  Params p_;
  double level_j_;
  sim::Time last_update_;
  bool notified_ = false;
  std::function<void()> on_depleted_;
};

/// Estimated battery lifetime in seconds for a duty cycle: fraction of time
/// transmitting / receiving, remainder idle.
double estimate_lifetime_s(const Battery::Params& p, double tx_frac,
                           double rx_frac);

}  // namespace aroma::phys

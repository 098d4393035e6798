#include "env/propagation.hpp"

#include <algorithm>
#include <cmath>

#include "sim/random.hpp"

namespace aroma::env {

double dbm_to_mw(double dbm) { return std::pow(10.0, dbm / 10.0); }

double mw_to_dbm(double mw) {
  return mw > 0.0 ? 10.0 * std::log10(mw) : -300.0;
}

double thermal_noise_dbm(double bandwidth_hz, double noise_figure_db) {
  return -174.0 + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

double channel_overlap(int tx_channel, int rx_channel) {
  const int sep = std::abs(tx_channel - rx_channel);
  if (sep >= 5) return 0.0;
  return 1.0 - static_cast<double>(sep) / 5.0;
}

double channel_center_mhz(int channel) {
  return 2412.0 + 5.0 * static_cast<double>(channel - 1);
}

double PathLossModel::shadowing_db(std::uint64_t id_a, std::uint64_t id_b) const {
  if (p_.shadowing_sigma_db <= 0.0 || (id_a == 0 && id_b == 0)) return 0.0;
  // Order-independent pairing so the link is reciprocal.
  const std::uint64_t lo = std::min(id_a, id_b);
  const std::uint64_t hi = std::max(id_a, id_b);

  if (shadow_cache_.empty()) shadow_cache_.resize(1024);
  const std::size_t mask = shadow_cache_.size() - 1;
  std::size_t slot = sim::mix_hash(lo, hi) & mask;
  while (shadow_cache_[slot].used) {
    if (shadow_cache_[slot].lo == lo && shadow_cache_[slot].hi == hi) {
      ++cache_stats_.shadow_hits;
      return shadow_cache_[slot].db;
    }
    slot = (slot + 1) & mask;
  }
  ++cache_stats_.shadow_misses;
  const double db = shadowing_db_uncached(lo, hi);
  shadow_cache_[slot] = {lo, hi, db, true};
  if (++shadow_cache_size_ * 10 > shadow_cache_.size() * 7) {
    std::vector<ShadowEntry> old;
    old.swap(shadow_cache_);
    shadow_cache_.resize(old.size() * 2);
    const std::size_t m2 = shadow_cache_.size() - 1;
    for (const ShadowEntry& e : old) {
      if (!e.used) continue;
      std::size_t s = sim::mix_hash(e.lo, e.hi) & m2;
      while (shadow_cache_[s].used) s = (s + 1) & m2;
      shadow_cache_[s] = e;
    }
  }
  return db;
}

double PathLossModel::shadowing_db_uncached(std::uint64_t lo,
                                            std::uint64_t hi) const {
  const std::uint64_t h = sim::mix_hash(sim::mix_hash(p_.seed, lo), hi);
  // Map hash to a standard normal via a 2-draw sum approximation (Irwin-Hall
  // with 4 uniforms gives a decent bell shape and is branch-free).
  double sum = 0.0;
  std::uint64_t s = h;
  for (int i = 0; i < 4; ++i) {
    sum += static_cast<double>(sim::splitmix64(s) >> 11) * 0x1.0p-53;
  }
  // Irwin-Hall(4): mean 2, variance 4/12 -> normalize.
  const double z = (sum - 2.0) / std::sqrt(4.0 / 12.0);
  return z * p_.shadowing_sigma_db;
}

double PathLossModel::loss_db(Vec2 from, Vec2 to, std::uint64_t id_a,
                              std::uint64_t id_b) const {
  const double d = std::max(distance(from, to), p_.ref_distance_m);
  const double pl = p_.ref_loss_db +
                    10.0 * p_.exponent * std::log10(d / p_.ref_distance_m);
  return pl + shadowing_db(id_a, id_b);
}

double PathLossModel::received_dbm(double tx_dbm, Vec2 from, Vec2 to,
                                   std::uint64_t id_a, std::uint64_t id_b) const {
  return tx_dbm - loss_db(from, to, id_a, id_b);
}

double PathLossModel::received_mw(double tx_dbm, Vec2 from, Vec2 to,
                                  std::uint64_t id_a, std::uint64_t id_b) const {
  return dbm_to_mw(received_dbm(tx_dbm, from, to, id_a, id_b));
}

double PathLossModel::shadowing_bound_db() const {
  if (p_.shadowing_sigma_db <= 0.0) return 0.0;
  return 2.0 * std::sqrt(3.0) * p_.shadowing_sigma_db;
}

double PathLossModel::nominal_range_m(double tx_dbm,
                                      double sensitivity_dbm) const {
  const double budget = tx_dbm - sensitivity_dbm - p_.ref_loss_db;
  if (budget <= 0.0) return p_.ref_distance_m;
  return p_.ref_distance_m * std::pow(10.0, budget / (10.0 * p_.exponent));
}

double sinr_db(double signal_dbm, double interference_mw, double noise_dbm) {
  const double denom_mw = interference_mw + dbm_to_mw(noise_dbm);
  return mw_to_dbm(dbm_to_mw(signal_dbm) / denom_mw);
}

double required_sinr_db(double bitrate_bps) {
  if (bitrate_bps <= 1e6) return 4.0;
  if (bitrate_bps <= 2e6) return 7.0;
  if (bitrate_bps <= 5.5e6) return 9.0;
  if (bitrate_bps <= 11e6) return 12.0;
  // Higher-rate OFDM-style extrapolation.
  return 12.0 + 6.0 * std::log2(bitrate_bps / 11e6);
}

}  // namespace aroma::env

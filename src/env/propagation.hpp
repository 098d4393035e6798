// Radio propagation and 2.4 GHz band modelling.
//
// The Aroma prototype ran over a 2.4 GHz wireless LAN; the paper's
// environment-layer discussion is dominated by its properties: limited
// range, interference from co-located devices, and channel overlap. This
// module provides the standard log-distance path-loss model with lognormal
// shadowing, thermal noise, and IEEE-802.11b-style channel overlap factors.
#pragma once

#include <cstdint>
#include <vector>

#include "env/geometry.hpp"

namespace aroma::env {

/// dBm <-> milliwatt conversions.
double dbm_to_mw(double dbm);
double mw_to_dbm(double mw);

/// Thermal noise floor for a receiver: -174 dBm/Hz + 10*log10(bandwidth_hz)
/// + noise_figure_db.
double thermal_noise_dbm(double bandwidth_hz, double noise_figure_db);

/// 2.4 GHz ISM band channels (1..13). Channels are 5 MHz apart but ~22 MHz
/// wide, so nearby channels partially overlap. Returns the fraction of a
/// transmission's power that lands in a receiver's channel: 1.0 co-channel,
/// decreasing linearly to 0.0 at a separation of 5 channels (the classic
/// 1/6/11 non-overlap rule).
double channel_overlap(int tx_channel, int rx_channel);

/// Center frequency in MHz of a 2.4 GHz channel.
double channel_center_mhz(int channel);

/// Log-distance path loss with deterministic per-link lognormal shadowing.
///
/// PL(d) = PL(d0) + 10 * n * log10(d / d0) + X_sigma, where X_sigma is a
/// zero-mean normal draw that is a *pure function* of (seed, link id pair),
/// so the same link always sees the same shadowing in a given world.
class PathLossModel {
 public:
  struct Params {
    double exponent = 3.0;        // indoor office: 2.7 - 3.5
    double ref_loss_db = 40.0;    // loss at d0 = 1 m for 2.4 GHz
    double ref_distance_m = 1.0;
    double shadowing_sigma_db = 4.0;
    std::uint64_t seed = 1;       // world seed for shadowing draws
  };

  /// Shadowing memo effectiveness counters (telemetry; see RadioMedium::
  /// publish_metrics). A "hit" returns a cached draw; a "miss" computes one.
  struct CacheStats {
    std::uint64_t shadow_hits = 0;
    std::uint64_t shadow_misses = 0;
  };

  PathLossModel() : PathLossModel(Params{}) {}
  explicit PathLossModel(Params p) : p_(p) {}

  const Params& params() const { return p_; }
  const CacheStats& cache_stats() const { return cache_stats_; }

  /// Path loss in dB between two points for the (a, b) link. Link ids make
  /// the shadowing reciprocal and stable; pass 0,0 to disable shadowing.
  double loss_db(Vec2 from, Vec2 to, std::uint64_t id_a = 0,
                 std::uint64_t id_b = 0) const;

  /// Received power in dBm given transmit power, positions, and link ids:
  /// tx_dbm - loss_db(...). Uncached; RadioMedium's dense per-pair memo is
  /// the link-budget cache.
  double received_dbm(double tx_dbm, Vec2 from, Vec2 to, std::uint64_t id_a = 0,
                      std::uint64_t id_b = 0) const;

  /// dbm_to_mw(received_dbm(...)): the interference and CCA paths sum
  /// milliwatts.
  double received_mw(double tx_dbm, Vec2 from, Vec2 to, std::uint64_t id_a = 0,
                     std::uint64_t id_b = 0) const;

  /// Distance at which received power falls to `sensitivity_dbm`, ignoring
  /// shadowing (used for ranging sweeps).
  double nominal_range_m(double tx_dbm, double sensitivity_dbm) const;

  /// Hard upper bound on |shadowing_db| for any link. The Irwin-Hall(4)
  /// draw keeps z strictly inside (-2*sqrt(3), 2*sqrt(3)), so shadowing can
  /// never exceed 2*sqrt(3)*sigma — which makes exact conservative range
  /// culling possible (see RadioMedium::cull_radius_m).
  double shadowing_bound_db() const;

 private:
  double shadowing_db(std::uint64_t id_a, std::uint64_t id_b) const;
  double shadowing_db_uncached(std::uint64_t lo, std::uint64_t hi) const;

  Params p_;

  // Per-link shadowing memo: the draw is a pure function of (seed, lo, hi),
  // so caching returns bit-identical values while skipping the hash chain on
  // the hot delivery/CCA paths. Open-addressed, insert-only; grown on load.
  // Not safe for concurrent queries on one instance (each simulated world
  // owns its own copy, and worlds are single-threaded).
  struct ShadowEntry {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    double db = 0.0;
    bool used = false;
  };
  mutable std::vector<ShadowEntry> shadow_cache_;
  mutable std::size_t shadow_cache_size_ = 0;

  mutable CacheStats cache_stats_;
};

/// Computes SINR in dB from signal, interference (mW sum), and noise.
double sinr_db(double signal_dbm, double interference_mw, double noise_dbm);

/// Minimal SINR required to decode at a given 802.11b-era bitrate.
/// Piecewise thresholds: 1 Mb/s: 4 dB, 2 Mb/s: 7 dB, 5.5 Mb/s: 9 dB,
/// 11 Mb/s: 12 dB (interpolated for other rates).
double required_sinr_db(double bitrate_bps);

}  // namespace aroma::env

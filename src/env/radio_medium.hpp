// The shared wireless medium: who hears what, and how well.
//
// All radios in a world attach to one RadioMedium. A transmission occupies
// the medium for bits/bitrate seconds; at its end the medium decides, for
// every attached radio, whether the frame was decodable given path loss,
// channel overlap, accumulated co-channel interference (weighted by time
// overlap), thermal noise, and half-duplex constraints. The medium also
// answers clear-channel-assessment queries for CSMA MACs.
//
// Hot-path indexing (Options::spatial_index, on by default):
//  - A uniform spatial hash grid over endpoint positions lets frame
//    delivery cull receivers by a conservative sensitivity radius instead
//    of scanning every attached endpoint. Shadowing is bounded (see
//    PathLossModel::shadowing_bound_db), so the cull is exact: a culled
//    receiver provably cannot clear its sensitivity threshold. Positions
//    are pure functions of time, so the grid is rebuilt lazily, at most
//    once per distinct query timestamp.
//  - Per-channel transmission logs restrict CCA/interference scans to
//    same/adjacent-channel traffic (channel overlap is zero at a
//    separation of 5+), and a per-sender log answers the half-duplex
//    check without walking the whole history.
// Candidate sets are always re-sorted into attach/id order before use, so
// delivery order and floating-point summation order — and therefore
// MediumStats and every downstream metric — are bit-identical to the
// exhaustive reference scans (asserted by env_test and the benches).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "env/geometry.hpp"
#include "env/propagation.hpp"
#include "sim/arena.hpp"
#include "sim/world.hpp"

namespace aroma::obs {
class Counter;
}  // namespace aroma::obs

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::env {

/// Static radio parameters a MAC/transceiver exposes to the medium.
struct RadioConfig {
  std::uint64_t id = 0;             // unique per radio in a world
  int channel = 1;                  // 2.4 GHz channel 1..13
  double sensitivity_dbm = -90.0;   // below this a frame is noise
  double cca_threshold_dbm = -85.0; // carrier-sense busy threshold
  double bandwidth_hz = 22e6;       // 802.11b-style channel width
  double noise_figure_db = 7.0;
};

/// Outcome of one frame at one receiver, reported at frame end.
struct FrameDelivery {
  std::uint64_t tx_id = 0;
  std::uint64_t sender_radio = 0;
  double rssi_dbm = -300.0;
  double sinr_db = -300.0;
  bool decodable = false;
  sim::Time start;
  sim::Time end;
  std::size_t bits = 0;
  double bitrate_bps = 0.0;
  std::shared_ptr<const void> payload;  // opaque to the medium; MAC decodes
};

/// Interface a radio implements to participate in the medium.
class RadioEndpoint {
 public:
  virtual ~RadioEndpoint() = default;
  virtual Vec2 position() const = 0;
  virtual const RadioConfig& radio_config() const = 0;
  /// False while the radio is off or transmitting (half duplex).
  virtual bool receiver_enabled() const = 0;
  /// Invoked at the end of every frame whose RSSI clears sensitivity.
  virtual void on_frame(const FrameDelivery& delivery) = 0;
  /// Hard bound on how fast this endpoint can move (see
  /// MobilityModel::max_speed_mps). Lets the medium's spatial grid age
  /// instead of rebuilding at every timestamp; infinity is always safe.
  virtual double max_speed_mps() const {
    return std::numeric_limits<double>::infinity();
  }

 private:
  friend class RadioMedium;
  // Lookup memo: this endpoint's index in the medium's endpoint table,
  // valid while the epoch matches the medium's ep_map_epoch_ (attach/
  // detach bumps it). Lets CCA skip a hash find per query.
  mutable std::uint32_t medium_ep_idx_ = 0;
  mutable std::uint64_t medium_ep_epoch_ = 0;
};

/// Medium-wide counters for experiments.
struct MediumStats {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries_attempted = 0;  // RSSI above sensitivity
  std::uint64_t deliveries_decodable = 0;
  std::uint64_t losses_sinr = 0;           // drowned by interference/noise
  std::uint64_t losses_half_duplex = 0;    // receiver was transmitting
  std::uint64_t losses_rx_off = 0;
};

/// Tuning knobs for RadioMedium's hot-path indexing (namespace-scope so it
/// can serve as a default argument).
struct RadioMediumOptions {
  /// Use the spatial grid + channel/sender logs. Off = exhaustive scans
  /// (the reference implementation; kept for equivalence testing).
  bool spatial_index = true;
  /// Grid cell edge in meters; 0 picks a default sized for indoor cells.
  double cell_size_m = 0.0;
  /// Batched link resolution: frame-end fan-out and CCA resolve link
  /// budgets through resolve_links() — one sweep over a dense per-pair
  /// memo with per-sender sweep caching — instead of one memoized model
  /// call per (candidate, frame). Off = the per-delivery scalar path (the
  /// reference; kept for equivalence testing and the bench speedup gate).
  /// Results are bit-identical either way (asserted by env_test).
  bool batch = true;
};

/// One directed link-budget question for RadioMedium::resolve_links.
struct LinkQuery {
  double tx_power_dbm = 0.0;
  Vec2 from;
  Vec2 to;
  std::uint64_t from_id = 0;
  std::uint64_t to_id = 0;
  int tx_channel = 1;
  int rx_channel = 1;
};

/// Answer to one LinkQuery. All four values are bit-identical to what the
/// scalar delivery path computes from the same inputs.
struct LinkResult {
  double rx_dbm = 0.0;    ///< path-model received power, before overlap
  double rx_mw = 0.0;     ///< dbm_to_mw(rx_dbm)
  double overlap = 0.0;   ///< channel_overlap(tx_channel, rx_channel)
  double rssi_dbm = 0.0;  ///< rx_dbm + 10*log10(max(overlap, 1e-12))
};

class RadioMedium {
 public:
  using Options = RadioMediumOptions;

  RadioMedium(sim::World& world, PathLossModel model,
              Options options = Options());

  void attach(RadioEndpoint* endpoint);
  void detach(RadioEndpoint* endpoint);
  std::size_t attached_count() const { return endpoints_.size(); }

  /// Starts a frame on the air. Returns the transmission id; the sender's
  /// own on_frame is never invoked for it. The sender must keep
  /// receiver_enabled() false for the duration (enforced by phys layer).
  std::uint64_t transmit(RadioEndpoint& sender, std::size_t bits,
                         double bitrate_bps, double tx_power_dbm,
                         std::shared_ptr<const void> payload);

  /// Clear-channel assessment: total in-flight energy at `ep`'s position on
  /// its channel exceeds its CCA threshold.
  bool carrier_busy(const RadioEndpoint& ep) const;
  /// As above with the config and position already in hand — lets a
  /// concrete endpoint (which knows its own fields) skip the virtual
  /// getters on the per-backoff-slot CCA path.
  bool carrier_busy_at(const RadioEndpoint& ep, const RadioConfig& cfg,
                       Vec2 pos) const;

  /// Idle edge of `ep`'s clear-channel assessment: the earliest instant
  /// t >= now such that, with only the transmissions already on the air,
  /// a CCA query at any instant from t on reads idle. That is now when the
  /// channel reads idle right after now, else the first in-flight end
  /// after which the remaining contributors sum below the CCA threshold.
  /// Each candidate sum takes the same terms, in the same ascending-id
  /// order and with the same arithmetic, as the CCA scan at that instant.
  /// So every query in (now, t) reads busy: a transmission that starts
  /// meanwhile has a higher id, adds its term last, and a non-negative
  /// term cannot lower a rounded sum. Assumes `ep` neither moves nor
  /// retunes. Scratch lives in a member: no per-call allocation.
  sim::Time carrier_idle_at(const RadioEndpoint& ep) const;

  /// In-flight energy (dBm) at a position on a channel; -inf-ish when idle.
  double energy_at(Vec2 pos, int channel, std::uint64_t observer_id) const;

  /// Resolves `queries.size()` link budgets in one pass. Results land in
  /// `results` (which must be at least as long). Queries whose endpoints
  /// are both attached hit the dense per-pair memo; others fall back to the
  /// path-loss model's open-addressed memo. Values are bit-identical to
  /// per-call scalar resolution from the same inputs (asserted by
  /// env_test's batch-equivalence property suite).
  void resolve_links(std::span<const LinkQuery> queries,
                     std::span<LinkResult> results) const;

  /// Batching efficacy counters (telemetry; reported by bench/kernel_bench
  /// under "batching"). All zero while Options::batch is off.
  struct BatchStats {
    std::uint64_t resolve_calls = 0;     ///< resolve_links invocations
    std::uint64_t queries = 0;           ///< link queries across all calls
    std::uint64_t memo_hits = 0;         ///< dense-memo guard matches
    std::uint64_t memo_misses = 0;       ///< dense-memo recomputes
    std::uint64_t fallback_queries = 0;  ///< endpoints not in the dense memo
    std::uint64_t sweep_hits = 0;        ///< frame fan-outs replayed from a
                                         ///< cached per-sender sweep
    std::uint64_t sweep_misses = 0;      ///< fan-outs that rebuilt the sweep
    std::uint64_t cca_hits = 0;          ///< CCA scans answered from the
                                         ///< per-observer energy cache
    std::uint64_t cca_misses = 0;        ///< CCA scans that walked in-flight
  };
  const BatchStats& batch_stats() const { return batch_stats_; }

  const MediumStats& stats() const { return stats_; }
  /// Running digest of the frame trace: each transmission's start (ns),
  /// sender and bits in tx-id order, and each delivery's receiver and
  /// outcome (decoded, half-duplex, receiver off, SINR) in delivery order.
  /// It measures behaviour, not cost: a MAC that puts the same frames on
  /// the air with fewer kernel events keeps it. Saved in checkpoints.
  std::uint64_t behaviour_digest() const { return digest_; }
  const PathLossModel& path_loss() const { return model_; }
  const Options& options() const { return options_; }

  /// Publishes pull-style metrics (path-loss memo hit/miss counters) to the
  /// world's registry, if one is attached. The live counters (transmissions,
  /// deliveries, losses) are pushed as they happen and need no call here.
  void publish_metrics();

  /// Must be called if an endpoint's position or radio config changes in a
  /// way its max_speed_mps() bound does not cover (e.g. a teleport via
  /// StaticMobility::set_position, or a sensitivity/channel change).
  /// attach/detach call this automatically. Also drops the batch path's
  /// endpoint snapshot and per-sender sweep caches.
  void invalidate_positions() {
    grid_valid_ = false;
    ep_cache_valid_ = false;
  }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // In-flight transmissions hold frame-end events and opaque payload
  // pointers, so they are never serialized: checkpoints are only taken when
  // the air is clear (no transmission whose end is still in the future).
  // History entries that have already ended are pure logs — they can never
  // overlap a post-restore frame — so restore simply clears them.
  bool snap_quiescent(std::string* why) const;
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  struct Transmission {
    std::uint64_t id;
    std::uint64_t sender_id;
    Vec2 sender_pos;   // captured at start (sender may move afterwards)
    int channel;
    double power_dbm;
    sim::Time start;
    sim::Time end;
    std::size_t bits;
    double bitrate_bps;
    std::shared_ptr<const void> payload;  // released when the frame ends
    std::uint64_t span = 0;  // obs span covering the frame's airtime
    // Cached endpoint index of the sender for the dense link memo; valid
    // while sender_map_epoch matches ep_map_epoch_ (attach/detach bumps it).
    mutable std::uint32_t sender_idx = 0;
    mutable std::uint64_t sender_map_epoch = 0;
  };

  /// Ids drawn from the owning world's arena (heap passthrough until the
  /// log is rebound; see sim/arena.hpp).
  using IdVector =
      std::vector<std::uint64_t, sim::ArenaAllocator<std::uint64_t>>;

  /// Append-only id log with a lazily advancing head so pruned ids are
  /// skipped without O(n) erasure.
  struct IdLog {
    IdLog() = default;
    explicit IdLog(sim::Arena* arena)
        : ids(sim::ArenaAllocator<std::uint64_t>(arena)) {}

    IdVector ids;
    std::size_t head = 0;

    void push(std::uint64_t id) { ids.push_back(id); }
    void drop_before(std::uint64_t first_id) {
      while (head < ids.size() && ids[head] < first_id) ++head;
      if (head > 64 && head * 2 > ids.size()) {
        ids.erase(ids.begin(),
                  ids.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
  };

  void finish(std::uint64_t tx_id);
  void deliver(const Transmission& tx, RadioEndpoint& ep);
  /// Tail of deliver() once the RSSI is known to clear sensitivity: stats,
  /// half-duplex/receiver/SINR verdict, on_frame. Shared by the scalar and
  /// batched fan-out paths (same code => identical side effects).
  void deliver_prepared(const Transmission& tx, RadioEndpoint& ep,
                        double rssi);
  /// Batched frame-end fan-out: candidate cull against the cached endpoint
  /// snapshot, one resolve_links sweep (or a cached per-sender sweep
  /// replay), then deliver_prepared for the passers.
  void finish_batched(const Transmission& tx);
  double interference_mw(const Transmission& tx, const RadioEndpoint& rx) const;
  bool sender_transmitted_during(std::uint64_t sender_id, sim::Time start,
                                 sim::Time end) const;
  void prune_history();

  /// History lookup by id (history ids are contiguous and ascending).
  const Transmission* find_tx(std::uint64_t id) const;
  std::uint64_t first_history_id() const {
    return history_.empty() ? next_tx_id_ : history_.front().id;
  }

  /// Channel bucket: clamps any int channel into the log array.
  static std::size_t channel_bucket(int channel);
  /// Ids of history transmissions on channels overlapping `channel`,
  /// ascending (== history scan order). Result lives in scratch_ids_.
  const std::vector<std::uint64_t>& overlapping_channel_ids(int channel) const;
  /// Ids of *in-flight or not-yet-started* transmissions on channels
  /// overlapping `channel`, ascending. Finished entries are dropped from
  /// the active lists permanently as they are encountered, so the per-CCA
  /// cost tracks the number of live transmissions, not the history window.
  const std::vector<std::uint64_t>& active_channel_ids(int channel,
                                                       sim::Time now) const;

  void rebuild_grid() const;
  double cull_radius_m(double tx_power_dbm) const;

  // --- batch path (Options::batch) ----------------------------------------
  /// Rebuilds the id->index map, dense memo shape, and sweep slots after
  /// attach/detach. Inline no-op once valid — this guards every batch-path
  /// entry point, including the per-backoff-slot CCA.
  void ensure_ep_map() const {
    if (!ep_map_valid_) rebuild_ep_map();
  }
  void rebuild_ep_map() const;
  /// Snapshots every endpoint's position + config at the current timestamp
  /// (skipped entirely when no endpoint can move). Bumps ep_epoch_ — which
  /// invalidates the per-sender sweeps — only when a value actually changed.
  void refresh_endpoint_cache() const;
  /// Resolves one query through the dense memo (or the model fallback).
  void resolve_one(const LinkQuery& q, LinkResult& r) const;
  /// The sender's endpoint index, memoized on the transmission record.
  /// Returns false when the sender is not attached (dense memo unusable).
  bool tx_sender_index(const Transmission& tx, std::uint32_t& idx) const;
  struct DenseLink;
  /// Returns the dense memo entry for the directed pair (fi -> oi) with
  /// rx_dbm/rx_mw valid, recomputing if the guards mismatch.
  DenseLink& dense_fill(std::uint32_t fi, std::uint32_t oi, double tx_dbm,
                        Vec2 from, Vec2 to, std::uint64_t from_id,
                        std::uint64_t to_id) const;
  /// Sentinel endpoint index: "not attached / dense memo unusable".
  static constexpr std::uint32_t kNoEpIdx = 0xffffffffu;
  /// The observer's endpoint index, memoized on the endpoint itself
  /// (epoch-validated). Caller must have run ensure_ep_map().
  std::uint32_t observer_index(const RadioEndpoint& ep,
                               std::uint64_t id) const;
  /// One CCA contributor as carrier_idle_at sees it: the instant it stops
  /// counting and its two factors (summed as p_mw * ch, like the scan).
  struct IdleTerm {
    sim::Time end;
    double p_mw;
    double ch;
  };
  /// Batched CCA body with the observer index already resolved.
  double energy_at_batched(Vec2 pos, int channel, std::uint64_t observer_id,
                           std::uint32_t oi) const;

  sim::World& world_;
  PathLossModel model_;
  Options options_;
  std::vector<RadioEndpoint*> endpoints_;
  // Transmission log: active + recently finished frames in id order. Backed
  // by the world's arena — the deque's fixed-size buffer nodes recycle
  // through one free list as frames are pushed and pruned, so steady-state
  // traffic costs no heap calls.
  std::deque<Transmission, sim::ArenaAllocator<Transmission>> history_;
  sim::Time max_duration_ = sim::Time::zero();
  std::uint64_t next_tx_id_ = 1;
  MediumStats stats_;
  std::uint64_t digest_ = 0;  // see behaviour_digest()

  // Telemetry handles, resolved once at construction; null when no registry
  // is attached to the world (the disabled-telemetry fast path).
  obs::Counter* m_transmissions_ = nullptr;
  obs::Counter* m_attempted_ = nullptr;
  obs::Counter* m_decodable_ = nullptr;
  obs::Counter* m_loss_sinr_ = nullptr;
  obs::Counter* m_loss_half_duplex_ = nullptr;
  obs::Counter* m_loss_rx_off_ = nullptr;

  // --- indices (all derived data; rebuilt or pruned lazily) ---------------
  static constexpr std::size_t kChannelBuckets = 15;  // 0..14, 1..13 typical
  mutable std::array<IdLog, kChannelBuckets> by_channel_;
  mutable std::array<IdVector, kChannelBuckets> active_by_channel_;
  mutable std::unordered_map<std::uint64_t, IdLog> by_sender_;
  mutable std::vector<std::uint64_t> scratch_ids_;

  // Spatial index: (cell key, endpoint index) pairs sorted by key, rebuilt
  // flat so steady-state queries never allocate. The grid is allowed to age
  // while every endpoint's possible displacement (max speed bound * elapsed
  // time) stays under one cell edge; queries pad the cull radius by that
  // drift, so staleness never costs exactness — only extra candidates.
  mutable std::vector<std::pair<std::uint64_t, std::uint32_t>> grid_;
  mutable std::vector<std::uint32_t> scratch_candidates_;
  mutable sim::Time grid_time_ = sim::Time::zero();
  mutable bool grid_valid_ = false;
  mutable double min_sensitivity_dbm_ = 0.0;    // refreshed on rebuild
  mutable double grid_speed_bound_mps_ = 0.0;   // max over endpoints
  mutable double grid_drift_m_ = 0.0;           // pad for the current query
  double cell_size_m_ = 16.0;

  // --- batch-path caches (all derived data; see ensure_ep_map /
  // refresh_endpoint_cache) ------------------------------------------------
  /// Dense memo rows/cols are endpoint indices; above this endpoint count
  /// the O(n^2) table is not worth its memory and queries fall back to the
  /// model's open-addressed memo.
  static constexpr std::size_t kDenseMemoMaxEndpoints = 512;

  /// Per-endpoint snapshot: position + the config fields the fan-out needs,
  /// so the batched sweep touches no virtual calls per candidate.
  struct EpSnap {
    Vec2 pos;
    std::uint64_t id = 0;
    int channel = 1;
    double sensitivity_dbm = 0.0;
    double max_speed_mps = 0.0;
  };
  /// Directed per-pair link memo, indexed [from_idx * n + to_idx]. Guard
  /// fields are compared exactly on every use, so motion or power changes
  /// refresh the entry — correctness never depends on staleness.
  struct DenseLink {
    double tx_dbm = 0.0;
    Vec2 from;
    Vec2 to;
    double rx_dbm = 0.0;
    double rx_mw = 0.0;
    std::uint8_t state = 0;  // 0 empty, 1 rx_dbm valid, 2 rx_mw too
  };
  /// Memoized energy_at() answer for one observer. In-flight energy at a
  /// fixed position is piecewise-constant in time: it only changes when an
  /// overlapping-channel transmission starts (transmit() bumps the
  /// cca_activity_seq_ of every bucket it can reach) or a contributor
  /// crosses its end timestamp (bounded by valid_until, the earliest
  /// contributing end). Within one piece the cached sum is the
  /// bit-identical scan result.
  /// Field order packs the entry into one 64-byte cache line.
  struct CcaEntry {
    std::uint64_t seq = 0;      // observer-bucket cca_activity_seq_ at compute
    std::uint64_t id = 0;       // observer id (guards idx reuse)
    Vec2 pos;
    sim::Time t;                // compute timestamp
    sim::Time valid_until;      // exclusive: earliest contributing tx end
    double value_dbm = 0.0;
    int channel = 0;
    bool exact_only = false;    // a tx started at exactly t; value differs
                                // for any later query
  };
  static_assert(sizeof(CcaEntry) == 64);

  /// Cached frame fan-out for one sender: the (receiver index, rssi) pairs
  /// that cleared sensitivity, valid while the guards match and no endpoint
  /// state changed (epoch). Static worlds build each sender's sweep once.
  struct SenderSweep {
    std::uint64_t epoch = 0;
    double power_dbm = 0.0;
    int channel = 0;
    Vec2 pos;
    bool valid = false;
    std::vector<std::pair<std::uint32_t, double>> passers;
  };

  mutable std::unordered_map<std::uint64_t, std::uint32_t> ep_index_;
  mutable std::vector<EpSnap> ep_cache_;
  mutable std::vector<DenseLink> dense_;
  mutable std::size_t dense_n_ = 0;  // 0 = dense memo disabled
  mutable std::vector<SenderSweep> sweeps_;
  mutable bool ep_map_valid_ = false;
  mutable std::uint64_t ep_map_epoch_ = 0;
  mutable bool ep_cache_valid_ = false;
  mutable sim::Time ep_cache_time_;
  mutable double ep_speed_bound_mps_ = 0.0;
  mutable std::uint64_t ep_epoch_ = 0;  // bumps when any snapshot changes
  mutable std::vector<LinkQuery> batch_queries_;
  mutable std::vector<LinkResult> batch_results_;
  mutable std::vector<std::uint32_t> batch_idx_;
  // Fan-out passers for the frame currently being finished. A member (not a
  // local) so its capacity survives across frames; iterated by index because
  // an on_frame callback may attach/detach and rebuild sweeps_ under us.
  mutable std::vector<std::pair<std::uint32_t, double>> scratch_passers_;
  mutable std::vector<CcaEntry> cca_cache_;  // indexed by endpoint index
  mutable std::vector<IdleTerm> idle_terms_;  // carrier_idle_at scratch
  /// Per-channel-bucket transmit counters: transmit() bumps every bucket
  /// its channel overlaps (sep < 5), so a CCA entry goes stale only when a
  /// transmission that could actually contribute to it has started.
  /// Buckets start at 1 so default CcaEntry{} (seq 0) never matches.
  std::array<std::uint64_t, kChannelBuckets> cca_activity_seq_{};
  /// Transmissions whose frame-end event has not fired yet, ascending id
  /// (ids are monotonic and finish() fires in end order within a moment).
  /// Pointers into history_ stay valid: the deque only pops entries whose
  /// finish already ran. Lets the batch CCA path skip the per-bucket log
  /// walk entirely.
  std::vector<const Transmission*> in_flight_;
  mutable BatchStats batch_stats_;
  /// overlap_db_[sep] = 10*log10(1 - sep/5) for sep 0..4, the exact
  /// expression deliver() evaluates per candidate; overlap_lin_[sep] is
  /// channel_overlap()'s own return value, tabled so the CCA miss walk
  /// skips the out-of-line call.
  std::array<double, 5> overlap_db_{};
  std::array<double, 5> overlap_lin_{};
};

}  // namespace aroma::env

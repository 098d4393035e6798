// The shared wireless medium: who hears what, and how well.
//
// All radios in a world attach to one RadioMedium. A transmission occupies
// the medium for bits/bitrate seconds; at its end the medium decides, for
// every attached radio, whether the frame was decodable given path loss,
// channel overlap, accumulated co-channel interference (weighted by time
// overlap), thermal noise, and half-duplex constraints. The medium also
// answers clear-channel-assessment queries for CSMA MACs and, seeing every
// frame start, runs the events of their backoff countdowns.
//
// Two implementations, chosen by Options::batch:
//  - Production (batch on, the default): frame-end fan-out and CCA resolve
//    link budgets through a dense per-pair memo, the medium's one
//    link-budget cache, and replay a per-sender sweep cache. When a
//    sender's sweep must be rebuilt it visits every endpoint in attach
//    order and culls by a conservative sensitivity radius before resolving
//    links. Shadowing is bounded (see PathLossModel::shadowing_bound_db),
//    so the cull is exact: a culled receiver provably cannot clear its
//    sensitivity threshold.
//  - Oracle (batch off): the exhaustive scalar reference. Every frame end
//    visits every attached endpoint, every interference, half-duplex and
//    CCA question scans the whole transmission history, and every link
//    budget is computed uncached.
// Both deliver in attach/id order and sum floating-point terms in the same
// order, so MediumStats and every downstream metric are bit-identical
// between the two (asserted by env_test, property_test and kernel_bench).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
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
  /// MobilityModel::max_speed_mps). A world whose bounds are all zero
  /// snapshots its endpoints once instead of at every timestamp; infinity
  /// is always safe.
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

/// A CSMA backoff countdown as the medium sees it (phys::CsmaMac is the one
/// implementation). While a countdown is live the medium owns its kernel
/// events: one at the last slot (a radio that can move: one per slot) and
/// at most one carrier check. It keeps every live countdown in the order a
/// per-slot loop would visit them within one instant (see
/// RadioMedium::countdown_start and DESIGN "Edge-driven CSMA deferral and
/// backoff").
class Countdown {
 public:
  /// The radio whose carrier sense (and own transmissions) the countdown
  /// reads.
  virtual const RadioEndpoint& countdown_radio() const = 0;
  /// The countdown's carrier check at one of its slot instants; `final` on
  /// its last slot. Returns true while it goes on (idle, not final). On
  /// false it has frozen or sent and left the medium via countdown_stop.
  virtual bool countdown_slot(bool final) = 0;

 protected:
  ~Countdown() = default;
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

/// RadioMedium's one knob (namespace-scope so it can serve as a default
/// argument).
struct RadioMediumOptions {
  /// The production path: frame-end fan-out and CCA resolve link budgets
  /// through resolve_links() — one sweep over a dense per-pair memo with
  /// per-sender sweep caching and a range cull — instead of one uncached
  /// model call per (endpoint, frame). Off = the exhaustive scalar oracle
  /// (kept for equivalence testing and the bench speedup gate). Results
  /// are bit-identical either way (asserted by env_test).
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
  /// getters on the MAC's carrier-check path.
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

  // --- edge-driven CSMA backoff ---------------------------------------------
  /// Starts a backoff countdown of `slots` idle slots of length `slot` at
  /// now: its last slot is now + (slots + 1) * slot. A static radio gets
  /// one event there and a carrier check at the first slot instant after
  /// each frame start it can sense (countdown_slot(false)); `polls` (a
  /// radio that can move) gets one event per slot instead. Same-instant
  /// events of live countdowns fire younger-first: a countdown joins
  /// behind those that started at this instant and ahead of older ones.
  void countdown_start(Countdown& c, sim::Time slot, int slots, bool polls);
  /// Cancels the countdown's events and drops it. No-op when not live.
  void countdown_stop(Countdown& c);
  /// The countdown's radio retuned: check carrier at the first slot
  /// instant at or after now.
  void countdown_retune(Countdown& c);
  /// Live countdowns (tests assert the list never outlives its MACs).
  std::size_t live_countdowns() const { return countdowns_.size(); }

  /// Resolves `queries.size()` link budgets in one pass. Results land in
  /// `results` (which must be at least as long). Queries whose endpoints
  /// are both attached hit the dense per-pair memo; others fall back to the
  /// uncached path-loss model. Values are bit-identical to
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
    std::uint64_t fallback_queries = 0;  ///< link budgets the dense memo
                                         ///< could not serve (uncached)
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

  /// Publishes pull-style metrics (shadowing memo hit/miss counters) to the
  /// world's registry, if one is attached. The live counters (transmissions,
  /// deliveries, losses) are pushed as they happen and need no call here.
  void publish_metrics();

  /// Must be called if an endpoint's position or radio config changes in a
  /// way its max_speed_mps() bound does not cover (e.g. a teleport via
  /// StaticMobility::set_position, or a sensitivity/channel change).
  /// attach/detach call this automatically. Drops the batch path's
  /// endpoint snapshot and, if a value changed, its per-sender sweeps.
  void invalidate_positions() { ep_cache_valid_ = false; }

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

  void finish(std::uint64_t tx_id);

  /// A live backoff countdown and its kernel events.
  struct CountdownEntry {
    Countdown* owner;
    sim::Time start;     // countdown start; slot instants are start + k * slot
    sim::Time slot;
    sim::Time last;      // its final slot instant
    sim::Time next;      // instant of next_ev: `last`, or a mover's next slot
    sim::Time check;     // instant of check_ev while it is pending
    sim::EventHandle next_ev;
    sim::EventHandle check_ev;  // invalid when no check is pending
    bool polls;
  };
  std::size_t countdown_index(const Countdown& c) const;
  /// Schedules countdown i's main or check event at `when`, then re-arms
  /// every older countdown's event at `when` behind it.
  void countdown_arm(std::size_t i, bool main, sim::Time when);
  /// Moves countdown i's pending event at `when` (if any) behind every
  /// event already queued for that instant.
  void countdown_rearm(std::size_t i, sim::Time when);
  void countdown_schedule(std::size_t i, bool main, sim::Time when);
  void countdown_fire(Countdown* c, bool main);
  /// transmit() hook: checks for the countdowns that can sense `tx`, and
  /// the frame's deliveries ahead of a countdown that ends with it.
  void countdowns_on_start(const Transmission& tx);
  /// A frame that `ep` can sense started at exactly now (CCA skips it
  /// until the next instant).
  bool sensed_start_now(const RadioEndpoint& ep) const;

  /// The per-frame fields of a delivery record (rssi, SINR and verdict are
  /// the receiver's).
  static FrameDelivery frame_record(const Transmission& tx);
  /// Scalar delivery of `tx` to one endpoint: link budget, half-duplex
  /// test and interference sum from the history, then deliver_verdict.
  void deliver(const Transmission& tx, RadioEndpoint& ep);
  /// True when `ep` was detached during the current fan-out.
  bool left_fanout(const RadioEndpoint* ep) const {
    return !fanout_detached_.empty() &&
           std::find(fanout_detached_.begin(), fanout_detached_.end(), ep) !=
               fanout_detached_.end();
  }
  /// The verdict tail both fan-out paths share, with `d` complete but for
  /// `decodable`: stats, half-duplex/receiver/SINR verdict, behaviour
  /// digest, on_frame (same code => identical side effects).
  void deliver_verdict(RadioEndpoint& ep, std::uint64_t rx_id,
                       bool half_duplex, FrameDelivery& d);
  /// Batched frame-end fan-out: candidate cull against the cached endpoint
  /// snapshot, one resolve_links sweep (or a cached per-sender sweep
  /// replay), the frame's interferer list, then per passer one gather and
  /// deliver_verdict. See DESIGN "Frame-end fan-out".
  void finish_batched(const Transmission& tx);
  /// One passer's gather over frame_terms_: the interference it hears and
  /// whether it transmitted during the frame.
  double gather_interference(const RadioEndpoint& ep, const RadioConfig& cfg,
                             bool& half_duplex) const;
  /// Scalar interference sum: rescans the history for `rx`. The oracle the
  /// batched gather is checked against.
  double interference_mw(const Transmission& tx, const RadioEndpoint& rx) const;
  bool sender_transmitted_during(std::uint64_t sender_id, sim::Time start,
                                 sim::Time end) const;
  void prune_history();

  /// History lookup by id (history ids are contiguous and ascending).
  const Transmission* find_tx(std::uint64_t id) const;
  std::uint64_t first_history_id() const {
    return history_.empty() ? next_tx_id_ : history_.front().id;
  }

  /// Channel bucket: clamps any int channel into cca_activity_seq_.
  static std::size_t channel_bucket(int channel);

  double cull_radius_m(double tx_power_dbm) const;

  // --- batch path (Options::batch) ----------------------------------------
  /// Rebuilds the id->index map, dense memo shape, and sweep slots after
  /// attach/detach. Inline no-op once valid — this guards every batch-path
  /// entry point, including every CCA query.
  void ensure_ep_map() const {
    if (!ep_map_valid_) rebuild_ep_map();
  }
  void rebuild_ep_map() const;
  /// Snapshots every endpoint's position + config at the current timestamp
  /// (skipped entirely when no endpoint can move) and the minimum
  /// sensitivity the range cull reads. Bumps ep_epoch_ — which invalidates
  /// the per-sender sweeps — only when a value actually changed.
  void refresh_endpoint_cache() const;
  /// Resolves one query through link_power.
  void resolve_one(const LinkQuery& q, LinkResult& r) const;
  /// The sender's endpoint index, memoized on the transmission record;
  /// kNoEpIdx when the sender is not attached.
  std::uint32_t tx_sender_index(const Transmission& tx) const;
  /// Sentinel endpoint index: "not attached / dense memo unusable".
  static constexpr std::uint32_t kNoEpIdx = 0xffffffffu;
  struct LinkPower {
    double dbm;
    double mw;
  };
  /// Received power over the directed link from endpoint fi to endpoint
  /// oi, in dBm and mW: the dense memo's entry (recomputed if its guards
  /// mismatch) when both ends are indexed, else the uncached model. The
  /// one place the production path chooses between the two.
  LinkPower link_power(std::uint32_t fi, std::uint32_t oi, double tx_dbm,
                       Vec2 from, Vec2 to, std::uint64_t from_id,
                       std::uint64_t to_id) const;
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
  // The receivers of the frame being fanned out, in delivery order, taken
  // before the first on_frame: a callback that attaches or detaches a radio
  // shifts endpoints_, not this list. A radio detached during the fan-out
  // is listed in fanout_detached_ and receives nothing more of the frame.
  std::vector<RadioEndpoint*> fanout_eps_;
  std::vector<const RadioEndpoint*> fanout_detached_;
  bool in_fanout_ = false;
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

  static constexpr std::size_t kChannelBuckets = 15;  // 0..14, 1..13 typical

  // --- batch-path caches (all derived data; see ensure_ep_map /
  // refresh_endpoint_cache) ------------------------------------------------
  /// Dense memo rows/cols are endpoint indices; above this endpoint count
  /// the O(n^2) table is not worth its memory and link budgets are computed
  /// uncached.
  static constexpr std::size_t kDenseMemoMaxEndpoints = 512;

  /// Per-endpoint snapshot: position + the config fields the fan-out needs,
  /// so the batched sweep touches no virtual calls per candidate.
  struct EpSnap {
    Vec2 pos;
    std::uint64_t id = 0;
    int channel = 1;
    double sensitivity_dbm = 0.0;
    double bandwidth_hz = 0.0;     // the noise floor's inputs, memoized
    double noise_figure_db = 0.0;  // per passer in the sweep
    double max_speed_mps = 0.0;
  };
  /// Directed per-pair link memo, indexed [from_idx * n + to_idx]. Guard
  /// fields are compared exactly on every use, so motion or power changes
  /// refresh the entry — correctness never depends on staleness.
  struct DenseLink {
    double tx_dbm = 0.0;
    Vec2 from;
    Vec2 to;
    LinkPower rx{0.0, 0.0};
    bool valid = false;
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

  /// One receiver of a sender's frames that clears sensitivity, with the
  /// receiver-side SINR terms: rssi_mw = dbm_to_mw(rssi_dbm), noise_mw =
  /// dbm_to_mw(thermal noise) and clear_sinr_db = mw_to_dbm(rssi_mw /
  /// noise_mw), the SINR when the interference is exactly 0.0.
  struct Passer {
    std::uint32_t idx;
    double rssi_dbm;
    double rssi_mw;
    double noise_mw;
    double clear_sinr_db;
  };
  /// Cached frame fan-out for one sender: the passers in endpoint order,
  /// valid while the guards match and no endpoint state changed (epoch).
  /// Static worlds build each sender's sweep once.
  struct SenderSweep {
    std::uint64_t epoch = 0;
    double power_dbm = 0.0;
    int channel = 0;
    Vec2 pos;
    bool valid = false;
    std::vector<Passer> passers;
  };
  /// One history entry that overlaps the frame being finished in time,
  /// other than the frame and its sender's other frames: the interval
  /// overlap's fraction of the frame, as interference_mw computes it, and
  /// whether that overlap has positive length.
  struct FrameTerm {
    const Transmission* tx;
    double frac;
    bool positive;
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
  mutable double min_sensitivity_dbm_ = 0.0;  // over the snapshot
  mutable std::uint64_t ep_epoch_ = 0;  // bumps when any snapshot changes
  mutable std::vector<LinkQuery> batch_queries_;
  mutable std::vector<LinkResult> batch_results_;
  mutable std::vector<std::uint32_t> batch_idx_;
  // Fan-out passers for the frame currently being finished. A member (not a
  // local) so its capacity survives across frames; a copy of the sweep
  // because an on_frame callback may attach/detach and rebuild sweeps_.
  std::vector<Passer> scratch_passers_;
  // The interferer list of the frame being finished, ascending id.
  std::vector<FrameTerm> frame_terms_;
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
  /// Live backoff countdowns in same-instant firing order: youngest first,
  /// those that started at one instant in join (DIFS) order.
  std::vector<CountdownEntry> countdowns_;
  std::vector<sim::Time> fresh_;  // countdowns_on_start scratch
  mutable BatchStats batch_stats_;
  /// overlap_db_[sep] = 10*log10(1 - sep/5) for sep 0..4, the exact
  /// expression deliver() evaluates per candidate; overlap_lin_[sep] is
  /// channel_overlap()'s own return value, tabled so the CCA miss walk
  /// skips the out-of-line call.
  std::array<double, 5> overlap_db_{};
  std::array<double, 5> overlap_lin_{};
};

}  // namespace aroma::env

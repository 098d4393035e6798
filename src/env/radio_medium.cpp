#include "env/radio_medium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/random.hpp"
#include "snap/format.hpp"

namespace aroma::env {

RadioMedium::RadioMedium(sim::World& world, PathLossModel model,
                         Options options)
    : world_(world), model_(model), options_(options),
      history_(sim::ArenaAllocator<Transmission>(&world.arena())) {
  // Rebind the id logs to the world's arena (they default-construct in heap
  // mode; the allocator propagation traits make move-assignment carry the
  // arena over).
  for (auto& log : by_channel_) log = IdLog(&world.arena());
  for (auto& v : active_by_channel_) {
    v = IdVector(sim::ArenaAllocator<std::uint64_t>(&world.arena()));
  }
  if (options_.cell_size_m > 0.0) cell_size_m_ = options_.cell_size_m;
  // Precompute 10*log10(channel_overlap) per channel separation — the exact
  // expression deliver() evaluates per candidate, so table lookups are
  // bit-identical to the scalar log10 calls.
  for (int sep = 0; sep < 5; ++sep) {
    const double overlap = channel_overlap(0, sep);
    overlap_lin_[static_cast<std::size_t>(sep)] = overlap;
    overlap_db_[static_cast<std::size_t>(sep)] =
        10.0 * std::log10(overlap > 0.0 ? overlap : 1e-12);
  }
  cca_activity_seq_.fill(1);
  const auto layer = lpc::Layer::kEnvironment;
  m_transmissions_ = obs::counter(world_, "env.radio.transmissions", layer);
  m_attempted_ = obs::counter(world_, "env.radio.deliveries_attempted", layer);
  m_decodable_ = obs::counter(world_, "env.radio.deliveries_decodable", layer);
  m_loss_sinr_ = obs::counter(world_, "env.radio.losses_sinr", layer);
  m_loss_half_duplex_ =
      obs::counter(world_, "env.radio.losses_half_duplex", layer);
  m_loss_rx_off_ = obs::counter(world_, "env.radio.losses_rx_off", layer);
}

void RadioMedium::publish_metrics() {
  obs::MetricsRegistry* m = world_.metrics();
  if (m == nullptr) return;
  const auto layer = lpc::Layer::kEnvironment;
  const PathLossModel::CacheStats& cs = model_.cache_stats();
  m->set_counter("env.radio.path_cache.link_hits", layer, cs.link_hits);
  m->set_counter("env.radio.path_cache.link_misses", layer, cs.link_misses);
  m->set_counter("env.radio.path_cache.shadow_hits", layer, cs.shadow_hits);
  m->set_counter("env.radio.path_cache.shadow_misses", layer,
                 cs.shadow_misses);
}

void RadioMedium::attach(RadioEndpoint* endpoint) {
  endpoints_.push_back(endpoint);
  invalidate_positions();
  ep_map_valid_ = false;
}

void RadioMedium::detach(RadioEndpoint* endpoint) {
  endpoints_.erase(std::remove(endpoints_.begin(), endpoints_.end(), endpoint),
                   endpoints_.end());
  invalidate_positions();
  ep_map_valid_ = false;
}

std::uint64_t RadioMedium::transmit(RadioEndpoint& sender, std::size_t bits,
                                    double bitrate_bps, double tx_power_dbm,
                                    std::shared_ptr<const void> payload) {
  const auto duration =
      sim::Time::sec(static_cast<double>(bits) / bitrate_bps);
  Transmission tx;
  tx.id = next_tx_id_++;
  tx.sender_id = sender.radio_config().id;
  tx.sender_pos = sender.position();
  tx.channel = sender.radio_config().channel;
  tx.power_dbm = tx_power_dbm;
  tx.start = world_.now();
  tx.end = world_.now() + duration;
  tx.bits = bits;
  tx.bitrate_bps = bitrate_bps;
  tx.payload = std::move(payload);
  // The frame's airtime becomes a span parented to whatever caused the
  // transmission (typically a MAC or fault-injection span); the frame-end
  // event inherits the span as its causal context, so everything delivery
  // triggers downstream parents to this frame.
  if (obs::SpanTracer* t = world_.spans(); t != nullptr && t->enabled()) {
    tx.span = t->begin(world_.now(), "env.radio.frame",
                       lpc::Layer::kEnvironment,
                       world_.sim().trace_context());
    t->annotate(tx.span, "sender", std::to_string(tx.sender_id));
    t->annotate(tx.span, "channel", std::to_string(tx.channel));
    t->annotate(tx.span, "bits", std::to_string(tx.bits));
  }
  by_channel_[channel_bucket(tx.channel)].push(tx.id);
  active_by_channel_[channel_bucket(tx.channel)].push_back(tx.id);
  by_sender_.try_emplace(tx.sender_id, &world_.arena())
      .first->second.push(tx.id);
  history_.push_back(std::move(tx));
  in_flight_.push_back(&history_.back());
  // A new contributor: cached CCA answers for every channel this
  // transmission can reach (sep < 5) are stale.
  {
    const int ch = history_.back().channel;
    const std::size_t blo = channel_bucket(ch - 4);
    const std::size_t bhi = channel_bucket(ch + 4);
    for (std::size_t b = blo; b <= bhi; ++b) ++cca_activity_seq_[b];
  }
  max_duration_ = std::max(max_duration_, duration);
  {
    const Transmission& t = history_.back();
    const auto start_ns = static_cast<std::uint64_t>(t.start.count());
    digest_ = sim::mix_hash(
        sim::mix_hash(sim::mix_hash(digest_, start_ns), t.sender_id), bits);
  }
  ++stats_.transmissions;
  if (m_transmissions_) m_transmissions_->add();

  // The frame record lives in history_ until pruned; capturing just the id
  // keeps this closure inside Callback's inline buffer (no allocation).
  const std::uint64_t id = history_.back().id;
  sim::ScopedTraceContext ctx(
      world_.sim(), history_.back().span != 0 ? history_.back().span
                                              : world_.sim().trace_context());
  world_.sim().schedule_at(history_.back().end, sim::EventCategory::kRadio,
                           [this, id] { finish(id); });
  return id;
}

const RadioMedium::Transmission* RadioMedium::find_tx(std::uint64_t id) const {
  const std::uint64_t first = first_history_id();
  if (id < first || id >= first + history_.size()) return nullptr;
  return &history_[static_cast<std::size_t>(id - first)];
}

std::size_t RadioMedium::channel_bucket(int channel) {
  if (channel < 0) return 0;
  if (channel >= static_cast<int>(kChannelBuckets)) return kChannelBuckets - 1;
  return static_cast<std::size_t>(channel);
}

const std::vector<std::uint64_t>& RadioMedium::overlapping_channel_ids(
    int channel) const {
  const std::uint64_t first = first_history_id();
  const std::size_t blo = channel_bucket(channel - 4);
  const std::size_t bhi = channel_bucket(channel + 4);
  scratch_ids_.clear();
  for (std::size_t b = blo; b <= bhi; ++b) {
    IdLog& log = by_channel_[b];
    log.drop_before(first);
    scratch_ids_.insert(scratch_ids_.end(), log.ids.begin() + static_cast<std::ptrdiff_t>(log.head),
                        log.ids.end());
  }
  // Ascending id order == history scan order, so floating-point sums over
  // these candidates are bit-identical to the exhaustive reference.
  std::sort(scratch_ids_.begin(), scratch_ids_.end());
  return scratch_ids_;
}

const std::vector<std::uint64_t>& RadioMedium::active_channel_ids(
    int channel, sim::Time now) const {
  const std::size_t blo = channel_bucket(channel - 4);
  const std::size_t bhi = channel_bucket(channel + 4);
  scratch_ids_.clear();
  for (std::size_t b = blo; b <= bhi; ++b) {
    IdVector& active = active_by_channel_[b];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Transmission* tx = find_tx(active[i]);
      // Once a transmission has ended it can never be sensed again: drop it
      // from the active list for good (amortized O(1) per transmission).
      if (!tx || tx->end <= now) continue;
      active[kept++] = active[i];
      scratch_ids_.push_back(active[i]);
    }
    active.resize(kept);
  }
  std::sort(scratch_ids_.begin(), scratch_ids_.end());
  return scratch_ids_;
}

bool RadioMedium::sender_transmitted_during(std::uint64_t sender_id,
                                            sim::Time start,
                                            sim::Time end) const {
  if (!options_.spatial_index) {
    for (const Transmission& other : history_) {
      if (other.sender_id != sender_id) continue;
      if (other.start < end && other.end > start) return true;
    }
    return false;
  }
  const auto it = by_sender_.find(sender_id);
  if (it == by_sender_.end()) return false;
  IdLog& log = it->second;
  log.drop_before(first_history_id());
  for (std::size_t i = log.head; i < log.ids.size(); ++i) {
    const Transmission* other = find_tx(log.ids[i]);
    if (other && other->start < end && other->end > start) return true;
  }
  return false;
}

void RadioMedium::rebuild_grid() const {
  const sim::Time now = world_.now();
  if (grid_valid_) {
    if (grid_time_ == now) return;
    // Let the grid age while the worst-case displacement stays under one
    // cell edge: queries pad the cull radius by the drift, so the cull is
    // still exact. A world of static endpoints rebuilds exactly once.
    const double dt = (now - grid_time_).seconds();
    const double drift = dt * grid_speed_bound_mps_;  // dt > 0, so inf is ok
    if (drift >= 0.0 && drift <= cell_size_m_) {
      grid_drift_m_ = drift;
      return;
    }
  }
  const bool fresh = grid_.size() != endpoints_.size();
  if (fresh) {
    grid_.resize(endpoints_.size());
    for (std::uint32_t i = 0; i < endpoints_.size(); ++i) grid_[i].second = i;
  }
  min_sensitivity_dbm_ = std::numeric_limits<double>::infinity();
  grid_speed_bound_mps_ = 0.0;
  // Refresh keys in the previous sorted order: when nobody moved between
  // rebuilds (the common steady state), the array stays sorted and the sort
  // below is skipped entirely.
  for (auto& [key, idx] : grid_) {
    key = cell_key(cell_of(endpoints_[idx]->position(), cell_size_m_));
    min_sensitivity_dbm_ =
        std::min(min_sensitivity_dbm_,
                 endpoints_[idx]->radio_config().sensitivity_dbm);
    grid_speed_bound_mps_ =
        std::max(grid_speed_bound_mps_, endpoints_[idx]->max_speed_mps());
  }
  if (!std::is_sorted(grid_.begin(), grid_.end())) {
    std::sort(grid_.begin(), grid_.end());
  }
  grid_time_ = now;
  grid_drift_m_ = 0.0;
  grid_valid_ = true;
}

double RadioMedium::cull_radius_m(double tx_power_dbm) const {
  // A receiver needs rssi >= its sensitivity; channel mismatch only
  // subtracts. With |shadowing| < shadowing_bound_db, anything beyond the
  // nominal range at (min sensitivity - bound) provably cannot decode. The
  // 1% slack absorbs floating-point disagreement between the pow() here and
  // the log10() in the exact per-candidate check.
  const double floor_dbm =
      min_sensitivity_dbm_ - model_.shadowing_bound_db();
  return model_.nominal_range_m(tx_power_dbm, floor_dbm) * 1.01 + 1e-6;
}

void RadioMedium::finish(std::uint64_t tx_id) {
  const Transmission* tx = find_tx(tx_id);
  if (!tx) return;  // pruned (cannot happen for live frames; be safe)
  const std::uint64_t span = tx->span;
  for (std::size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i]->id == tx_id) {
      in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }

  if (options_.batch && !endpoints_.empty()) {
    finish_batched(*tx);
  } else if (!options_.spatial_index || endpoints_.empty()) {
    for (RadioEndpoint* ep : endpoints_) deliver(*tx, *ep);
  } else {
    rebuild_grid();
    const double radius = cull_radius_m(tx->power_dbm);
    const double r2 = radius * radius;
    // Grid cells hold positions as of grid_time_; widen the search ring by
    // the worst-case displacement since then. The exact distance check below
    // still uses the unpadded radius against *current* positions.
    const double ring = radius + grid_drift_m_;
    const Vec2 pos = tx->sender_pos;
    scratch_candidates_.clear();
    // A degenerate radius (overflow/NaN from extreme model params) or one
    // spanning more cells than there are radios means indexing can't win:
    // scan everything (still exact, just the reference order).
    bool full_scan = !(ring < 1e7);
    CellCoord c0, c1;
    if (!full_scan) {
      c0 = cell_of({pos.x - ring, pos.y - ring}, cell_size_m_);
      c1 = cell_of({pos.x + ring, pos.y + ring}, cell_size_m_);
      const std::uint64_t span_x = static_cast<std::uint64_t>(c1.x - c0.x) + 1;
      const std::uint64_t span_y = static_cast<std::uint64_t>(c1.y - c0.y) + 1;
      full_scan = span_x * span_y >= endpoints_.size();
    }
    if (full_scan) {
      for (std::uint32_t i = 0; i < endpoints_.size(); ++i) {
        scratch_candidates_.push_back(i);
      }
    } else {
      // cell_key is monotonic in (x, y), so for each x-column the cells
      // [c0.y .. c1.y] are one contiguous key range: one binary search per
      // column instead of one per cell.
      for (std::int32_t cx = c0.x; cx <= c1.x; ++cx) {
        const std::uint64_t klo = cell_key({cx, c0.y});
        const std::uint64_t khi = cell_key({cx, c1.y});
        auto it = std::lower_bound(
            grid_.begin(), grid_.end(), klo,
            [](const auto& entry, std::uint64_t k) { return entry.first < k; });
        for (; it != grid_.end() && it->first <= khi; ++it) {
          scratch_candidates_.push_back(it->second);
        }
      }
      // Attach order == the exhaustive loop's delivery order.
      std::sort(scratch_candidates_.begin(), scratch_candidates_.end());
    }
    for (const std::uint32_t idx : scratch_candidates_) {
      RadioEndpoint* ep = endpoints_[idx];
      const Vec2 d = ep->position() - pos;
      if (d.norm2() > r2) continue;  // provably below sensitivity
      deliver(*tx, *ep);
    }
  }

  // Frame over: the payload is no longer needed, only the transmission's
  // geometry/timing (kept for interference overlap with later frames).
  const std::uint64_t first = first_history_id();
  history_[static_cast<std::size_t>(tx_id - first)].payload.reset();
  prune_history();

  if (span != 0) {
    if (obs::SpanTracer* t = world_.spans()) t->end(span, world_.now());
  }
}

void RadioMedium::deliver(const Transmission& tx, RadioEndpoint& ep) {
  const RadioConfig& cfg = ep.radio_config();
  if (cfg.id == tx.sender_id) return;
  const double overlap = channel_overlap(tx.channel, cfg.channel);
  if (overlap <= 0.0) return;
  const double rssi =
      model_.received_dbm(tx.power_dbm, tx.sender_pos, ep.position(),
                          tx.sender_id, cfg.id) +
      10.0 * std::log10(overlap > 0.0 ? overlap : 1e-12);
  if (rssi < cfg.sensitivity_dbm) return;
  deliver_prepared(tx, ep, rssi);
}

void RadioMedium::deliver_prepared(const Transmission& tx, RadioEndpoint& ep,
                                   double rssi) {
  const RadioConfig& cfg = ep.radio_config();
  ++stats_.deliveries_attempted;
  if (m_attempted_) m_attempted_->add();

  FrameDelivery d;
  d.tx_id = tx.id;
  d.sender_radio = tx.sender_id;
  d.rssi_dbm = rssi;
  d.start = tx.start;
  d.end = tx.end;
  d.bits = tx.bits;
  d.bitrate_bps = tx.bitrate_bps;
  d.payload = tx.payload;

  // Half duplex: did this receiver transmit at any point during the frame?
  const bool rx_transmitted =
      sender_transmitted_during(cfg.id, tx.start, tx.end);

  const double noise = thermal_noise_dbm(cfg.bandwidth_hz, cfg.noise_figure_db);
  d.sinr_db = sinr_db(rssi, interference_mw(tx, ep), noise);

  // Folded into the behaviour digest: 0 decoded, 1 half duplex, 2 receiver
  // off, 3 below the SINR threshold.
  std::uint64_t outcome = 0;
  if (rx_transmitted) {
    d.decodable = false;
    outcome = 1;
    ++stats_.losses_half_duplex;
    if (m_loss_half_duplex_) m_loss_half_duplex_->add();
  } else if (!ep.receiver_enabled()) {
    d.decodable = false;
    outcome = 2;
    ++stats_.losses_rx_off;
    if (m_loss_rx_off_) m_loss_rx_off_->add();
  } else if (d.sinr_db < required_sinr_db(tx.bitrate_bps)) {
    d.decodable = false;
    outcome = 3;
    ++stats_.losses_sinr;
    if (m_loss_sinr_) m_loss_sinr_->add();
  } else {
    d.decodable = true;
    ++stats_.deliveries_decodable;
    if (m_decodable_) m_decodable_->add();
  }
  digest_ = sim::mix_hash(sim::mix_hash(digest_, cfg.id), outcome);
  ep.on_frame(d);
}

void RadioMedium::rebuild_ep_map() const {
  const std::size_t n = endpoints_.size();
  ep_index_.clear();
  ep_index_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ep_index_[endpoints_[i]->radio_config().id] = i;
  }
  dense_n_ = (n > 0 && n <= kDenseMemoMaxEndpoints) ? n : 0;
  dense_.assign(dense_n_ * dense_n_, DenseLink{});
  sweeps_.assign(n, SenderSweep{});
  cca_cache_.assign(n, CcaEntry{});
  ep_cache_valid_ = false;
  ++ep_map_epoch_;
  ep_map_valid_ = true;
}

void RadioMedium::refresh_endpoint_cache() const {
  ensure_ep_map();
  const sim::Time now = world_.now();
  // No endpoint can move => the snapshot can never go stale; same-timestamp
  // queries see identical positions by construction. Static worlds snapshot
  // exactly once.
  if (ep_cache_valid_ &&
      (ep_cache_time_ == now || ep_speed_bound_mps_ == 0.0)) {
    return;
  }
  const std::size_t n = endpoints_.size();
  bool changed = ep_cache_.size() != n;
  ep_cache_.resize(n);
  double bound = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const RadioEndpoint* ep = endpoints_[i];
    const RadioConfig& cfg = ep->radio_config();
    EpSnap s;
    s.pos = ep->position();
    s.id = cfg.id;
    s.channel = cfg.channel;
    s.sensitivity_dbm = cfg.sensitivity_dbm;
    s.max_speed_mps = ep->max_speed_mps();
    bound = std::max(bound, s.max_speed_mps);
    EpSnap& dst = ep_cache_[i];
    changed = changed || dst.pos != s.pos || dst.id != s.id ||
              dst.channel != s.channel ||
              dst.sensitivity_dbm != s.sensitivity_dbm;
    dst = s;
  }
  ep_speed_bound_mps_ = bound;
  ep_cache_time_ = now;
  ep_cache_valid_ = true;
  // Per-sender sweeps stay valid across a refresh that changed nothing (a
  // re-snapshot after invalidate_positions where nobody actually moved).
  if (changed) ++ep_epoch_;
}

RadioMedium::DenseLink& RadioMedium::dense_fill(
    std::uint32_t fi, std::uint32_t oi, double tx_dbm, Vec2 from, Vec2 to,
    std::uint64_t from_id, std::uint64_t to_id) const {
  DenseLink& e =
      dense_[static_cast<std::size_t>(fi) * dense_n_ + oi];
  if (e.state != 0 && e.tx_dbm == tx_dbm && e.from == from && e.to == to) {
    ++batch_stats_.memo_hits;
  } else {
    ++batch_stats_.memo_misses;
    e.tx_dbm = tx_dbm;
    e.from = from;
    e.to = to;
    // The exact expression of PathLossModel::link_lookup's miss path, so the
    // memo returns bit-identical values to the model's own cache.
    e.rx_dbm = tx_dbm - model_.loss_db(from, to, from_id, to_id);
    e.state = 1;
  }
  if (e.state < 2) {
    e.rx_mw = dbm_to_mw(e.rx_dbm);
    e.state = 2;
  }
  return e;
}

bool RadioMedium::tx_sender_index(const Transmission& tx,
                                  std::uint32_t& idx) const {
  ensure_ep_map();
  if (tx.sender_map_epoch != ep_map_epoch_) {
    const auto it = ep_index_.find(tx.sender_id);
    tx.sender_idx = it == ep_index_.end() ? kNoEpIdx : it->second;
    tx.sender_map_epoch = ep_map_epoch_;
  }
  idx = tx.sender_idx;
  return idx != kNoEpIdx;
}

void RadioMedium::resolve_one(const LinkQuery& q, LinkResult& r) const {
  const DenseLink* e = nullptr;
  if (dense_n_ != 0) {
    const auto a = ep_index_.find(q.from_id);
    if (a != ep_index_.end()) {
      const auto b = ep_index_.find(q.to_id);
      if (b != ep_index_.end()) {
        e = &dense_fill(a->second, b->second, q.tx_power_dbm, q.from, q.to,
                        q.from_id, q.to_id);
      }
    }
  }
  if (e != nullptr) {
    r.rx_dbm = e->rx_dbm;
    r.rx_mw = e->rx_mw;
  } else {
    ++batch_stats_.fallback_queries;
    r.rx_dbm =
        model_.received_dbm(q.tx_power_dbm, q.from, q.to, q.from_id, q.to_id);
    r.rx_mw =
        model_.received_mw(q.tx_power_dbm, q.from, q.to, q.from_id, q.to_id);
  }
  r.overlap = channel_overlap(q.tx_channel, q.rx_channel);
  const int sep = q.tx_channel < q.rx_channel ? q.rx_channel - q.tx_channel
                                              : q.tx_channel - q.rx_channel;
  r.rssi_dbm = r.rx_dbm + (sep < 5 ? overlap_db_[static_cast<std::size_t>(sep)]
                                   : 10.0 * std::log10(1e-12));
}

void RadioMedium::resolve_links(std::span<const LinkQuery> queries,
                                std::span<LinkResult> results) const {
  ensure_ep_map();
  ++batch_stats_.resolve_calls;
  batch_stats_.queries += queries.size();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    resolve_one(queries[i], results[i]);
  }
}

void RadioMedium::finish_batched(const Transmission& tx) {
  ensure_ep_map();
  refresh_endpoint_cache();
  std::uint32_t sidx = kNoEpIdx;
  SenderSweep* sw = tx_sender_index(tx, sidx) ? &sweeps_[sidx] : nullptr;
  const bool replay = sw != nullptr && sw->valid && sw->epoch == ep_epoch_ &&
                      sw->power_dbm == tx.power_dbm &&
                      sw->channel == tx.channel && sw->pos == tx.sender_pos;
  if (replay) {
    ++batch_stats_.sweep_hits;
    scratch_passers_ = sw->passers;
  } else {
    ++batch_stats_.sweep_misses;
    // Candidate enumeration mirrors the scalar path (same grid, same cull
    // radius, same final sort into attach order); the exact distance check
    // runs against the snapshot, which refresh_endpoint_cache() guarantees
    // agrees with current positions.
    scratch_candidates_.clear();
    bool have_r2 = false;
    double r2 = 0.0;
    const Vec2 pos = tx.sender_pos;
    if (options_.spatial_index) {
      rebuild_grid();
      const double radius = cull_radius_m(tx.power_dbm);
      r2 = radius * radius;
      have_r2 = true;
      const double ring = radius + grid_drift_m_;
      bool full_scan = !(ring < 1e7);
      CellCoord c0, c1;
      if (!full_scan) {
        c0 = cell_of({pos.x - ring, pos.y - ring}, cell_size_m_);
        c1 = cell_of({pos.x + ring, pos.y + ring}, cell_size_m_);
        const std::uint64_t span_x =
            static_cast<std::uint64_t>(c1.x - c0.x) + 1;
        const std::uint64_t span_y =
            static_cast<std::uint64_t>(c1.y - c0.y) + 1;
        full_scan = span_x * span_y >= endpoints_.size();
      }
      if (full_scan) {
        for (std::uint32_t i = 0; i < endpoints_.size(); ++i) {
          scratch_candidates_.push_back(i);
        }
      } else {
        for (std::int32_t cx = c0.x; cx <= c1.x; ++cx) {
          const std::uint64_t klo = cell_key({cx, c0.y});
          const std::uint64_t khi = cell_key({cx, c1.y});
          auto it = std::lower_bound(grid_.begin(), grid_.end(), klo,
                                     [](const auto& entry, std::uint64_t k) {
                                       return entry.first < k;
                                     });
          for (; it != grid_.end() && it->first <= khi; ++it) {
            scratch_candidates_.push_back(it->second);
          }
        }
        std::sort(scratch_candidates_.begin(), scratch_candidates_.end());
      }
    } else {
      for (std::uint32_t i = 0; i < endpoints_.size(); ++i) {
        scratch_candidates_.push_back(i);
      }
    }
    batch_queries_.clear();
    batch_idx_.clear();
    for (const std::uint32_t idx : scratch_candidates_) {
      const EpSnap& s = ep_cache_[idx];
      if (have_r2) {
        const Vec2 d = s.pos - pos;
        if (d.norm2() > r2) continue;  // provably below sensitivity
      }
      if (s.id == tx.sender_id) continue;
      // Separation >= 5 is exactly overlap == 0, the scalar early return.
      if (s.channel - tx.channel >= 5 || tx.channel - s.channel >= 5) continue;
      batch_idx_.push_back(idx);
      LinkQuery q;
      q.tx_power_dbm = tx.power_dbm;
      q.from = pos;
      q.to = s.pos;
      q.from_id = tx.sender_id;
      q.to_id = s.id;
      q.tx_channel = tx.channel;
      q.rx_channel = s.channel;
      batch_queries_.push_back(q);
    }
    batch_results_.resize(batch_idx_.size());
    resolve_links(batch_queries_, batch_results_);
    scratch_passers_.clear();
    for (std::size_t i = 0; i < batch_idx_.size(); ++i) {
      const std::uint32_t idx = batch_idx_[i];
      const double rssi = batch_results_[i].rssi_dbm;
      if (rssi < ep_cache_[idx].sensitivity_dbm) continue;
      scratch_passers_.emplace_back(idx, rssi);
    }
    if (sw != nullptr) {
      sw->epoch = ep_epoch_;
      sw->power_dbm = tx.power_dbm;
      sw->channel = tx.channel;
      sw->pos = tx.sender_pos;
      sw->passers = scratch_passers_;
      sw->valid = true;
    }
  }
  // Ascending endpoint index == attach order == the scalar delivery order,
  // so on_frame side effects and stats land in the identical sequence.
  for (std::size_t i = 0; i < scratch_passers_.size(); ++i) {
    const auto [idx, rssi] = scratch_passers_[i];
    deliver_prepared(tx, *endpoints_[idx], rssi);
  }
}

double RadioMedium::interference_mw(const Transmission& tx,
                                    const RadioEndpoint& rx) const {
  const RadioConfig& cfg = rx.radio_config();
  const double span = (tx.end - tx.start).seconds();
  double total_mw = 0.0;
  // Batch mode: resolve the receiver's dense-memo column once, then each
  // interferer reuses its memoized link budget (guards re-checked, so the
  // value is bit-identical to the model call it replaces).
  std::uint32_t oi = kNoEpIdx;
  Vec2 rx_pos;
  if (options_.batch) {
    ensure_ep_map();
    if (dense_n_ != 0) {
      const auto it = ep_index_.find(cfg.id);
      if (it != ep_index_.end()) {
        oi = it->second;
        rx_pos = rx.position();
      }
    }
  }
  const auto contribution = [&](const Transmission& other) {
    if (other.id == tx.id || other.sender_id == tx.sender_id ||
        other.sender_id == cfg.id) {
      return;
    }
    const sim::Time o_start = std::max(other.start, tx.start);
    const sim::Time o_end = std::min(other.end, tx.end);
    if (o_end <= o_start) return;
    const double overlap_frac =
        span > 0.0 ? (o_end - o_start).seconds() / span : 1.0;
    const double ch = channel_overlap(other.channel, cfg.channel);
    if (ch <= 0.0) return;
    double p_mw;
    std::uint32_t fi;
    if (oi != kNoEpIdx && tx_sender_index(other, fi)) {
      p_mw = dense_fill(fi, oi, other.power_dbm, other.sender_pos, rx_pos,
                        other.sender_id, cfg.id)
                 .rx_mw;
    } else {
      p_mw = model_.received_mw(other.power_dbm, other.sender_pos,
                                rx.position(), other.sender_id, cfg.id);
    }
    total_mw += p_mw * ch * overlap_frac;
  };
  // The pruned history only spans the interference-overlap window, so for
  // light traffic a direct scan beats assembling a candidate list. Skipped
  // transmissions contribute exactly zero milliwatts either way, so both
  // paths produce bit-identical sums (same additions, same id order).
  if (!options_.spatial_index || history_.size() <= 64) {
    for (const Transmission& other : history_) contribution(other);
  } else {
    for (const std::uint64_t id : overlapping_channel_ids(cfg.channel)) {
      if (const Transmission* other = find_tx(id)) contribution(*other);
    }
  }
  return total_mw;
}

bool RadioMedium::carrier_busy(const RadioEndpoint& ep) const {
  return carrier_busy_at(ep, ep.radio_config(), ep.position());
}

bool RadioMedium::carrier_busy_at(const RadioEndpoint& ep,
                                  const RadioConfig& cfg, Vec2 pos) const {
  if (options_.batch) {
    ensure_ep_map();
    return energy_at_batched(pos, cfg.channel, cfg.id,
                             observer_index(ep, cfg.id)) >=
           cfg.cca_threshold_dbm;
  }
  return energy_at(pos, cfg.channel, cfg.id) >= cfg.cca_threshold_dbm;
}

std::uint32_t RadioMedium::observer_index(const RadioEndpoint& ep,
                                          std::uint64_t id) const {
  if (ep.medium_ep_epoch_ == ep_map_epoch_) return ep.medium_ep_idx_;
  std::uint32_t oi = kNoEpIdx;
  const auto it = ep_index_.find(id);
  if (it != ep_index_.end()) oi = it->second;
  ep.medium_ep_idx_ = oi;
  ep.medium_ep_epoch_ = ep_map_epoch_;
  return oi;
}

double RadioMedium::energy_at_batched(Vec2 pos, int channel,
                                      std::uint64_t observer_id,
                                      std::uint32_t oi) const {
  // Batched CCA: answer from the per-observer cache when the energy can
  // not have changed since it was computed (see CcaEntry), else one pass
  // over the in-flight list — every live transmission, ascending id, the
  // same terms in the same order as the scalar scan — with link budgets
  // from the dense memo.
  const sim::Time now = world_.now();
  const std::uint64_t seq = cca_activity_seq_[channel_bucket(channel)];
  if (oi != kNoEpIdx) {
    const CcaEntry& e = cca_cache_[oi];
    if (e.seq == seq && e.id == observer_id && e.channel == channel &&
        e.pos == pos &&
        (now == e.t || (!e.exact_only && e.t < now && now < e.valid_until))) {
      ++batch_stats_.cca_hits;
      return e.value_dbm;
    }
  }
  ++batch_stats_.cca_misses;
  double total_mw = 0.0;
  sim::Time valid_until = sim::Time::max();
  bool exact_only = false;
  for (const Transmission* tx : in_flight_) {
    if (tx->sender_id == observer_id) continue;
    if (tx->end <= now) continue;  // ends this instant; finish pending
    if (tx->start >= now) {
      // Started at this exact instant: not yet sensed (the slotted-CSMA
      // vulnerable window). It will be for any later query.
      exact_only = true;
      continue;
    }
    // Overlap is exactly zero at separation >= 5; table the rest.
    const int sep = tx->channel >= channel ? tx->channel - channel
                                           : channel - tx->channel;
    if (sep >= 5) continue;
    const double ch = overlap_lin_[static_cast<std::size_t>(sep)];
    if (ch <= 0.0) continue;
    if (tx->end < valid_until) valid_until = tx->end;
    double p_mw;
    std::uint32_t fi;
    if (oi != kNoEpIdx && dense_n_ != 0 && tx_sender_index(*tx, fi)) {
      p_mw = dense_fill(fi, oi, tx->power_dbm, tx->sender_pos, pos,
                        tx->sender_id, observer_id)
                 .rx_mw;
    } else {
      p_mw = model_.received_mw(tx->power_dbm, tx->sender_pos, pos,
                                tx->sender_id, observer_id);
    }
    total_mw += p_mw * ch;
  }
  const double result = mw_to_dbm(total_mw);
  if (oi != kNoEpIdx) {
    cca_cache_[oi] = {seq,         observer_id, pos,    now,
                      valid_until, result,      channel, exact_only};
  }
  return result;
}

double RadioMedium::energy_at(Vec2 pos, int channel,
                              std::uint64_t observer_id) const {
  if (options_.batch) {
    ensure_ep_map();
    std::uint32_t oi = kNoEpIdx;
    const auto it = ep_index_.find(observer_id);
    if (it != ep_index_.end()) oi = it->second;
    return energy_at_batched(pos, channel, observer_id, oi);
  }
  const sim::Time now = world_.now();
  double total_mw = 0.0;
  const auto contribution = [&](const Transmission& tx) {
    if (tx.sender_id == observer_id) return;
    // A transmission starting at this exact instant is not yet sensed:
    // this is the slotted-CSMA vulnerable window that produces real
    // collisions when two stations' backoff counters expire together.
    if (tx.start >= now || tx.end <= now) return;
    const double ch = channel_overlap(tx.channel, channel);
    if (ch <= 0.0) return;
    total_mw += model_.received_mw(tx.power_dbm, tx.sender_pos, pos,
                                   tx.sender_id, observer_id) *
                ch;
  };
  if (!options_.spatial_index) {
    for (const Transmission& tx : history_) contribution(tx);
  } else {
    for (const std::uint64_t id : active_channel_ids(channel, now)) {
      if (const Transmission* tx = find_tx(id)) contribution(*tx);
    }
  }
  return mw_to_dbm(total_mw);
}

sim::Time RadioMedium::carrier_idle_at(const RadioEndpoint& ep) const {
  const RadioConfig& cfg = ep.radio_config();
  const Vec2 pos = ep.position();
  const sim::Time now = world_.now();
  // The terms a CCA scan at any later instant sums, in its ascending-id
  // order. Frames that start at exactly now count: a scan at now skips
  // them, every later scan does not.
  idle_terms_.clear();
  if (options_.batch) {
    ensure_ep_map();
    const std::uint32_t oi = observer_index(ep, cfg.id);
    for (const Transmission* tx : in_flight_) {
      if (tx->sender_id == cfg.id || tx->end <= now) continue;
      const int sep = tx->channel >= cfg.channel ? tx->channel - cfg.channel
                                                 : cfg.channel - tx->channel;
      if (sep >= 5) continue;
      const double ch = overlap_lin_[static_cast<std::size_t>(sep)];
      if (ch <= 0.0) continue;
      double p_mw;
      std::uint32_t fi;
      if (oi != kNoEpIdx && dense_n_ != 0 && tx_sender_index(*tx, fi)) {
        p_mw = dense_fill(fi, oi, tx->power_dbm, tx->sender_pos, pos,
                          tx->sender_id, cfg.id)
                   .rx_mw;
      } else {
        p_mw = model_.received_mw(tx->power_dbm, tx->sender_pos, pos,
                                  tx->sender_id, cfg.id);
      }
      idle_terms_.push_back({tx->end, p_mw, ch});
    }
  } else {
    // Reference: the exhaustive history scan of the scalar energy_at.
    for (const Transmission& tx : history_) {
      if (tx.sender_id == cfg.id || tx.end <= now) continue;
      const double ch = channel_overlap(tx.channel, cfg.channel);
      if (ch <= 0.0) continue;
      idle_terms_.push_back(
          {tx.end,
           model_.received_mw(tx.power_dbm, tx.sender_pos, pos, tx.sender_id,
                              cfg.id),
           ch});
    }
  }
  // Energy is piecewise constant between ends: walk them in time order
  // until the survivors read idle.
  sim::Time t = now;
  for (;;) {
    double total_mw = 0.0;
    sim::Time next = sim::Time::max();
    for (const IdleTerm& x : idle_terms_) {
      if (x.end <= t) continue;
      total_mw += x.p_mw * x.ch;
      next = std::min(next, x.end);
    }
    if (!(mw_to_dbm(total_mw) >= cfg.cca_threshold_dbm) ||
        next == sim::Time::max()) {
      return t;
    }
    t = next;
  }
}

void RadioMedium::prune_history() {
  // Keep anything that could still overlap an in-flight frame.
  const sim::Time cutoff = world_.now() - max_duration_ - max_duration_;
  while (!history_.empty() && history_.front().end < cutoff) {
    history_.pop_front();
  }
}

bool RadioMedium::snap_quiescent(std::string* why) const {
  const sim::Time now = world_.now();
  for (const Transmission& tx : history_) {
    if (tx.end > now) {
      if (why) *why = "radio medium: transmission in flight";
      return false;
    }
  }
  return true;
}

void RadioMedium::save(snap::SectionWriter& w) const {
  w.u64(stats_.transmissions);
  w.u64(stats_.deliveries_attempted);
  w.u64(stats_.deliveries_decodable);
  w.u64(stats_.losses_sinr);
  w.u64(stats_.losses_half_duplex);
  w.u64(stats_.losses_rx_off);
  w.u64(next_tx_id_);
  w.duration(max_duration_);
  w.u64(digest_);
}

void RadioMedium::restore(snap::SectionReader& r) {
  // Drop all finished-transmission logs and derived indices; they can never
  // affect a post-restore delivery (see header note).
  history_.clear();
  for (auto& log : by_channel_) {
    log.ids.clear();
    log.head = 0;
  }
  for (auto& ids : active_by_channel_) ids.clear();
  by_sender_.clear();
  scratch_ids_.clear();
  grid_valid_ = false;
  ep_map_valid_ = false;
  ep_cache_valid_ = false;
  in_flight_.clear();
  for (auto& s : cca_activity_seq_) ++s;

  stats_.transmissions = r.u64();
  stats_.deliveries_attempted = r.u64();
  stats_.deliveries_decodable = r.u64();
  stats_.losses_sinr = r.u64();
  stats_.losses_half_duplex = r.u64();
  stats_.losses_rx_off = r.u64();
  next_tx_id_ = r.u64();
  max_duration_ = r.duration();
  digest_ = r.u64();
}

}  // namespace aroma::env

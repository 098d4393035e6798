#include "env/radio_medium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/random.hpp"
#include "snap/format.hpp"

namespace aroma::env {

RadioMedium::RadioMedium(sim::World& world, PathLossModel model,
                         Options options)
    : world_(world), model_(model), options_(options),
      history_(sim::ArenaAllocator<Transmission>(&world.arena())) {
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
  if (in_fanout_) fanout_detached_.push_back(endpoint);
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
  if (obs::SpanTracer* t = world_.spans()) {
    tx.span = t->begin(world_.now(), "env.radio.frame",
                       lpc::Layer::kEnvironment,
                       world_.sim().trace_context());
    t->annotate(tx.span, "sender", std::to_string(tx.sender_id));
    t->annotate(tx.span, "channel", std::to_string(tx.channel));
    t->annotate(tx.span, "bits", std::to_string(tx.bits));
  }
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
  {
    sim::ScopedTraceContext ctx(world_.sim(),
                                history_.back().span != 0
                                    ? history_.back().span
                                    : world_.sim().trace_context());
    world_.sim().schedule_at(history_.back().end, sim::EventCategory::kRadio,
                             [this, id] { finish(id); });
  }
  if (!countdowns_.empty()) countdowns_on_start(history_.back());
  return id;
}

// --- edge-driven CSMA backoff ------------------------------------------------
//
// The per-slot loop these countdowns replace schedules each slot from the
// one before, so within one instant its slot events fire in a fixed order:
// a countdown that starts later was released by a DIFS timer queued before
// an older countdown's slot event, and stays ahead of it from then on.
// countdowns_ holds that order. The medium keeps the kernel in step by
// re-arming: cancelling an older countdown's event and scheduling it again
// at the same instant puts it behind everything already queued there.

std::size_t RadioMedium::countdown_index(const Countdown& c) const {
  std::size_t i = 0;
  while (i < countdowns_.size() && countdowns_[i].owner != &c) ++i;
  return i;
}

void RadioMedium::countdown_start(Countdown& c, sim::Time slot, int slots,
                                  bool polls) {
  const sim::Time now = world_.now();
  std::size_t i = 0;
  while (i < countdowns_.size() && countdowns_[i].start == now) ++i;
  const sim::Time last = now + slot * (slots + 1);
  countdowns_.insert(countdowns_.begin() + static_cast<std::ptrdiff_t>(i),
                     CountdownEntry{&c, now, slot, last,
                                    polls ? now + slot : last,
                                    sim::Time::max(), {}, {}, polls});
  countdown_arm(i, true, countdowns_[i].next);
  // CCA skips a frame at its own start instant, so one that started now
  // reads busy only at the next slot: check there.
  if (!polls && now + slot < last && sensed_start_now(c.countdown_radio())) {
    countdown_arm(i, false, now + slot);
  }
}

void RadioMedium::countdown_stop(Countdown& c) {
  const std::size_t i = countdown_index(c);
  if (i == countdowns_.size()) return;
  sim::Simulator& sim = world_.sim();
  if (countdowns_[i].next_ev.valid()) sim.cancel(countdowns_[i].next_ev);
  if (countdowns_[i].check_ev.valid()) sim.cancel(countdowns_[i].check_ev);
  countdowns_.erase(countdowns_.begin() + static_cast<std::ptrdiff_t>(i));
}

void RadioMedium::countdown_retune(Countdown& c) {
  const std::size_t i = countdown_index(c);
  if (i == countdowns_.size() || countdowns_[i].polls) return;
  CountdownEntry& e = countdowns_[i];
  const std::int64_t slot = e.slot.count();
  const std::int64_t k = std::max<std::int64_t>(
      1, ((world_.now() - e.start).count() + slot - 1) / slot);
  const sim::Time at = e.start + e.slot * k;
  if (at >= e.last) return;  // the last slot checks anyway
  if (e.check_ev.valid()) {
    if (e.check <= at) return;
    world_.sim().cancel(e.check_ev);
    e.check_ev = {};
  }
  countdown_arm(i, false, at);
}

void RadioMedium::countdown_arm(std::size_t i, bool main, sim::Time when) {
  countdown_schedule(i, main, when);
  for (std::size_t j = i + 1; j < countdowns_.size(); ++j) {
    countdown_rearm(j, when);
  }
}

void RadioMedium::countdown_rearm(std::size_t i, sim::Time when) {
  CountdownEntry& e = countdowns_[i];
  if (e.next_ev.valid() && e.next == when) {
    world_.sim().cancel(e.next_ev);
    countdown_schedule(i, true, when);
  } else if (e.check_ev.valid() && e.check == when) {
    world_.sim().cancel(e.check_ev);
    countdown_schedule(i, false, when);
  }
}

void RadioMedium::countdown_schedule(std::size_t i, bool main,
                                     sim::Time when) {
  CountdownEntry& e = countdowns_[i];
  Countdown* c = e.owner;
  const sim::EventHandle h =
      world_.sim().schedule_at(when, sim::EventCategory::kMac,
                               [this, c, main] { countdown_fire(c, main); });
  (main ? e.next : e.check) = when;
  (main ? e.next_ev : e.check_ev) = h;
}

void RadioMedium::countdown_fire(Countdown* c, bool main) {
  const std::size_t i = countdown_index(*c);
  CountdownEntry& e = countdowns_[i];
  (main ? e.next_ev : e.check_ev) = {};
  const sim::Time now = world_.now();
  // An idle, non-final slot leaves the list as it was, so `e` stays valid.
  if (!c->countdown_slot(main && now == e.last)) return;
  if (e.polls) {
    countdown_arm(i, true, now + e.slot);
  } else if (now + e.slot < e.last && sensed_start_now(c->countdown_radio())) {
    // Read idle ahead of a frame that started at this instant.
    countdown_arm(i, false, now + e.slot);
  }
}

void RadioMedium::countdowns_on_start(const Transmission& tx) {
  const sim::Time now = world_.now();
  fresh_.clear();  // instants that got a check in this pass
  for (std::size_t i = 0; i < countdowns_.size(); ++i) {
    CountdownEntry& e = countdowns_[i];
    // A countdown whose last slot is this frame's end: the per-slot loop
    // queued that slot after the frame end (the frame outlasts a slot), so
    // the frame's deliveries, and the resync they cause, come first.
    if (e.next == tx.end && tx.end - now > e.slot) countdown_rearm(i, tx.end);
    // Behind the checks younger countdowns just got at the same instant.
    for (const sim::Time t : fresh_) countdown_rearm(i, t);
    // Energy rises only when a frame starts, so one check at the first
    // slot instant after each start is all the per-slot loop could see. A
    // pending check is never later than that instant, and covers it.
    if (e.polls || e.check_ev.valid()) continue;
    const RadioConfig& cfg = e.owner->countdown_radio().radio_config();
    const int sep = tx.channel >= cfg.channel ? tx.channel - cfg.channel
                                              : cfg.channel - tx.channel;
    if (sep >= 5 && tx.sender_id != cfg.id) continue;
    const sim::Time at =
        e.start + e.slot * ((now - e.start).count() / e.slot.count() + 1);
    if (at >= e.last) continue;  // the last slot checks anyway
    countdown_schedule(i, false, at);
    if (std::find(fresh_.begin(), fresh_.end(), at) == fresh_.end()) {
      fresh_.push_back(at);
    }
  }
}

bool RadioMedium::sensed_start_now(const RadioEndpoint& ep) const {
  const RadioConfig& cfg = ep.radio_config();
  const sim::Time now = world_.now();
  // in_flight_ is in tx-id order, so the frames that started now are last.
  for (auto it = in_flight_.rbegin();
       it != in_flight_.rend() && (*it)->start == now; ++it) {
    const int sep = (*it)->channel >= cfg.channel
                        ? (*it)->channel - cfg.channel
                        : cfg.channel - (*it)->channel;
    if (sep < 5 || (*it)->sender_id == cfg.id) return true;
  }
  return false;
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

bool RadioMedium::sender_transmitted_during(std::uint64_t sender_id,
                                            sim::Time start,
                                            sim::Time end) const {
  for (const Transmission& other : history_) {
    if (other.sender_id != sender_id) continue;
    if (other.start < end && other.end > start) return true;
  }
  return false;
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

  in_fanout_ = true;
  if (options_.batch && !endpoints_.empty()) {
    finish_batched(*tx);
  } else {
    // Oracle: every attached endpoint, in attach order.
    fanout_eps_.assign(endpoints_.begin(), endpoints_.end());
    for (RadioEndpoint* ep : fanout_eps_) {
      if (!left_fanout(ep)) deliver(*tx, *ep);
    }
  }
  in_fanout_ = false;
  fanout_detached_.clear();

  // Frame over: the payload is no longer needed, only the transmission's
  // geometry/timing (kept for interference overlap with later frames).
  const std::uint64_t first = first_history_id();
  history_[static_cast<std::size_t>(tx_id - first)].payload.reset();
  prune_history();

  if (span != 0) {
    if (obs::SpanTracer* t = world_.spans()) t->end(span, world_.now());
  }
}

FrameDelivery RadioMedium::frame_record(const Transmission& tx) {
  FrameDelivery d;
  d.tx_id = tx.id;
  d.sender_radio = tx.sender_id;
  d.start = tx.start;
  d.end = tx.end;
  d.bits = tx.bits;
  d.bitrate_bps = tx.bitrate_bps;
  d.payload = tx.payload;
  return d;
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

  FrameDelivery d = frame_record(tx);
  d.rssi_dbm = rssi;
  // Half duplex: did this receiver transmit at any point during the frame?
  const bool rx_transmitted =
      sender_transmitted_during(cfg.id, tx.start, tx.end);
  const double noise = thermal_noise_dbm(cfg.bandwidth_hz, cfg.noise_figure_db);
  d.sinr_db = sinr_db(rssi, interference_mw(tx, ep), noise);
  deliver_verdict(ep, cfg.id, rx_transmitted, d);
}

void RadioMedium::deliver_verdict(RadioEndpoint& ep, std::uint64_t rx_id,
                                  bool half_duplex, FrameDelivery& d) {
  ++stats_.deliveries_attempted;
  if (m_attempted_) m_attempted_->add();
  // Folded into the behaviour digest: 0 decoded, 1 half duplex, 2 receiver
  // off, 3 below the SINR threshold.
  std::uint64_t outcome = 0;
  if (half_duplex) {
    d.decodable = false;
    outcome = 1;
    ++stats_.losses_half_duplex;
    if (m_loss_half_duplex_) m_loss_half_duplex_->add();
  } else if (!ep.receiver_enabled()) {
    d.decodable = false;
    outcome = 2;
    ++stats_.losses_rx_off;
    if (m_loss_rx_off_) m_loss_rx_off_->add();
  } else if (d.sinr_db < required_sinr_db(d.bitrate_bps)) {
    d.decodable = false;
    outcome = 3;
    ++stats_.losses_sinr;
    if (m_loss_sinr_) m_loss_sinr_->add();
  } else {
    d.decodable = true;
    ++stats_.deliveries_decodable;
    if (m_decodable_) m_decodable_->add();
  }
  digest_ = sim::mix_hash(sim::mix_hash(digest_, rx_id), outcome);
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
  double min_sensitivity = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const RadioEndpoint* ep = endpoints_[i];
    const RadioConfig& cfg = ep->radio_config();
    EpSnap s;
    s.pos = ep->position();
    s.id = cfg.id;
    s.channel = cfg.channel;
    s.sensitivity_dbm = cfg.sensitivity_dbm;
    s.bandwidth_hz = cfg.bandwidth_hz;
    s.noise_figure_db = cfg.noise_figure_db;
    s.max_speed_mps = ep->max_speed_mps();
    bound = std::max(bound, s.max_speed_mps);
    min_sensitivity = std::min(min_sensitivity, s.sensitivity_dbm);
    EpSnap& dst = ep_cache_[i];
    changed = changed || dst.pos != s.pos || dst.id != s.id ||
              dst.channel != s.channel ||
              dst.sensitivity_dbm != s.sensitivity_dbm ||
              dst.bandwidth_hz != s.bandwidth_hz ||
              dst.noise_figure_db != s.noise_figure_db;
    dst = s;
  }
  ep_speed_bound_mps_ = bound;
  min_sensitivity_dbm_ = min_sensitivity;
  ep_cache_time_ = now;
  ep_cache_valid_ = true;
  // Per-sender sweeps stay valid across a refresh that changed nothing (a
  // re-snapshot after invalidate_positions where nobody actually moved).
  if (changed) ++ep_epoch_;
}

std::uint32_t RadioMedium::tx_sender_index(const Transmission& tx) const {
  ensure_ep_map();
  if (tx.sender_map_epoch != ep_map_epoch_) {
    const auto it = ep_index_.find(tx.sender_id);
    tx.sender_idx = it == ep_index_.end() ? kNoEpIdx : it->second;
    tx.sender_map_epoch = ep_map_epoch_;
  }
  return tx.sender_idx;
}

RadioMedium::LinkPower RadioMedium::link_power(
    std::uint32_t fi, std::uint32_t oi, double tx_dbm, Vec2 from, Vec2 to,
    std::uint64_t from_id, std::uint64_t to_id) const {
  if (fi == kNoEpIdx || oi == kNoEpIdx || dense_n_ == 0) {
    ++batch_stats_.fallback_queries;
    const double dbm = model_.received_dbm(tx_dbm, from, to, from_id, to_id);
    return {dbm, dbm_to_mw(dbm)};
  }
  DenseLink& e = dense_[static_cast<std::size_t>(fi) * dense_n_ + oi];
  if (e.valid && e.tx_dbm == tx_dbm && e.from == from && e.to == to) {
    ++batch_stats_.memo_hits;
  } else {
    ++batch_stats_.memo_misses;
    e.tx_dbm = tx_dbm;
    e.from = from;
    e.to = to;
    // PathLossModel::received_dbm/received_mw's own expressions, so the
    // memo returns the oracle's bits.
    e.rx.dbm = model_.received_dbm(tx_dbm, from, to, from_id, to_id);
    e.rx.mw = dbm_to_mw(e.rx.dbm);
    e.valid = true;
  }
  return e.rx;
}

void RadioMedium::resolve_one(const LinkQuery& q, LinkResult& r) const {
  const auto index = [this](std::uint64_t id) {
    const auto it = ep_index_.find(id);
    return it == ep_index_.end() ? kNoEpIdx : it->second;
  };
  const LinkPower p = link_power(index(q.from_id), index(q.to_id),
                                 q.tx_power_dbm, q.from, q.to, q.from_id,
                                 q.to_id);
  r.rx_dbm = p.dbm;
  r.rx_mw = p.mw;
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
  const std::uint32_t sidx = tx_sender_index(tx);
  SenderSweep* sw = sidx != kNoEpIdx ? &sweeps_[sidx] : nullptr;
  const bool replay = sw != nullptr && sw->valid && sw->epoch == ep_epoch_ &&
                      sw->power_dbm == tx.power_dbm &&
                      sw->channel == tx.channel && sw->pos == tx.sender_pos;
  if (replay) {
    ++batch_stats_.sweep_hits;
    scratch_passers_ = sw->passers;
  } else {
    ++batch_stats_.sweep_misses;
    // Every endpoint in attach order (the oracle's delivery order), culled
    // against the snapshot, which refresh_endpoint_cache() guarantees
    // agrees with current positions.
    const double radius = cull_radius_m(tx.power_dbm);
    const double r2 = radius * radius;
    const Vec2 pos = tx.sender_pos;
    batch_queries_.clear();
    batch_idx_.clear();
    for (std::uint32_t idx = 0; idx < ep_cache_.size(); ++idx) {
      const EpSnap& s = ep_cache_[idx];
      const Vec2 d = s.pos - pos;
      if (d.norm2() > r2) continue;  // provably below sensitivity
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
      const EpSnap& s = ep_cache_[idx];
      const double rssi = batch_results_[i].rssi_dbm;
      if (rssi < s.sensitivity_dbm) continue;
      // sinr_db's own terms, evaluated once per sweep instead of per frame.
      Passer p{idx, rssi, dbm_to_mw(rssi),
               dbm_to_mw(thermal_noise_dbm(s.bandwidth_hz, s.noise_figure_db)),
               0.0};
      p.clear_sinr_db = mw_to_dbm(p.rssi_mw / p.noise_mw);
      scratch_passers_.push_back(p);
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
  if (scratch_passers_.empty()) return;

  // The receiver-independent half of every delivery, once per frame: the
  // history entries that overlap the frame in time, in ascending id order.
  // Starts ascend with ids, so the scan stops at the first entry that
  // starts at or after the frame's end; a frame sent from an on_frame
  // callback below starts at tx.end and never joins.
  frame_terms_.clear();
  const double span = (tx.end - tx.start).seconds();
  for (const Transmission& other : history_) {
    if (other.start >= tx.end) break;
    if (other.end <= tx.start || other.id == tx.id ||
        other.sender_id == tx.sender_id) {
      continue;
    }
    const sim::Time o_start = std::max(other.start, tx.start);
    const sim::Time o_end = std::min(other.end, tx.end);
    const bool positive = o_end > o_start;
    const double frac =
        positive && span > 0.0 ? (o_end - o_start).seconds() / span : 1.0;
    frame_terms_.push_back({&other, frac, positive});
  }
  FrameDelivery d = frame_record(tx);

  // Ascending endpoint index == attach order == the scalar delivery order,
  // so on_frame side effects and stats land in the identical sequence.
  fanout_eps_.clear();
  for (const Passer& p : scratch_passers_) {
    fanout_eps_.push_back(endpoints_[p.idx]);
  }
  for (std::size_t i = 0; i < scratch_passers_.size(); ++i) {
    if (left_fanout(fanout_eps_[i])) continue;
    const Passer p = scratch_passers_[i];
    RadioEndpoint& ep = *fanout_eps_[i];
    const RadioConfig& cfg = ep.radio_config();
    bool half_duplex = false;
    const double i_mw = gather_interference(ep, cfg, half_duplex);
    d.rssi_dbm = p.rssi_dbm;
    // sinr_db(rssi, i_mw, noise) from the memoized terms; with no
    // interference its denominator 0.0 + noise_mw is exactly noise_mw.
    d.sinr_db = i_mw == 0.0 ? p.clear_sinr_db
                            : mw_to_dbm(p.rssi_mw / (i_mw + p.noise_mw));
    deliver_verdict(ep, cfg.id, half_duplex, d);
  }
}

double RadioMedium::gather_interference(const RadioEndpoint& ep,
                                        const RadioConfig& cfg,
                                        bool& half_duplex) const {
  if (frame_terms_.empty()) return 0.0;
  // An on_frame callback may have attached or detached a radio: the dense
  // memo index of this receiver and of each interferer's sender is read
  // through the epoch-checked memos, never carried across the fan-out.
  ensure_ep_map();
  const std::uint32_t oi = observer_index(ep, cfg.id);
  const Vec2 rx_pos = ep.position();
  double total_mw = 0.0;
  for (const FrameTerm& t : frame_terms_) {
    const Transmission& other = *t.tx;
    if (other.sender_id == cfg.id) {
      half_duplex = true;
      continue;
    }
    if (!t.positive) continue;
    const int sep = other.channel >= cfg.channel ? other.channel - cfg.channel
                                                 : cfg.channel - other.channel;
    if (sep >= 5) continue;
    const double p_mw =
        link_power(tx_sender_index(other), oi, other.power_dbm,
                   other.sender_pos, rx_pos, other.sender_id, cfg.id)
            .mw;
    total_mw += p_mw * overlap_lin_[static_cast<std::size_t>(sep)] * t.frac;
  }
  return total_mw;
}

double RadioMedium::interference_mw(const Transmission& tx,
                                    const RadioEndpoint& rx) const {
  const RadioConfig& cfg = rx.radio_config();
  const double span = (tx.end - tx.start).seconds();
  double total_mw = 0.0;
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
    const double p_mw = model_.received_mw(other.power_dbm, other.sender_pos,
                                           rx.position(), other.sender_id,
                                           cfg.id);
    total_mw += p_mw * ch * overlap_frac;
  };
  for (const Transmission& other : history_) contribution(other);
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
    const double p_mw =
        link_power(tx_sender_index(*tx), oi, tx->power_dbm, tx->sender_pos,
                   pos, tx->sender_id, observer_id)
            .mw;
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
  for (const Transmission& tx : history_) contribution(tx);
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
      const double p_mw =
          link_power(tx_sender_index(*tx), oi, tx->power_dbm, tx->sender_pos,
                     pos, tx->sender_id, cfg.id)
              .mw;
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
  ep_map_valid_ = false;
  ep_cache_valid_ = false;
  in_flight_.clear();
  countdowns_.clear();  // their events went with Simulator::clear_pending
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

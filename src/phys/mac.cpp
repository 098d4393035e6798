#include "phys/mac.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "snap/format.hpp"

namespace aroma::phys {

CsmaMac::CsmaMac(sim::World& world, Transceiver& radio, sim::Rng rng,
                 Params params)
    : world_(world), radio_(radio), rng_(rng), params_(params),
      cw_(params.cw_min) {
  radio_.set_receive_handler(
      [this](const env::FrameDelivery& d) { on_radio_frame(d); });
  radio_.set_retune_handler([this] { on_retune(); });
  const auto layer = lpc::Layer::kPhysical;
  m_sent_data_ = obs::counter(world_, "phys.mac.sent_data", layer);
  m_sent_acks_ = obs::counter(world_, "phys.mac.sent_acks", layer);
  m_delivered_up_ = obs::counter(world_, "phys.mac.delivered_up", layer);
  m_retries_ = obs::counter(world_, "phys.mac.retries", layer);
  m_drops_retry_ = obs::counter(world_, "phys.mac.drops_retry_limit", layer);
  m_drops_queue_ = obs::counter(world_, "phys.mac.drops_queue_full", layer);
  m_queue_peak_ = obs::gauge(world_, "phys.mac.queue_depth_peak", layer);
  m_service_ = obs::hdr(world_, "phys.mac.service_us", layer);
}

double CsmaMac::bitrate() const { return radio_.bitrate_bps(); }

bool CsmaMac::send(MacAddress dst, std::size_t payload_bits,
                   MacPayload payload, SendCallback cb) {
  ++stats_.enqueued;
  if (queue_.size() >= params_.queue_limit) {
    ++stats_.drops_queue_full;
    if (m_drops_queue_) m_drops_queue_->add();
    if (cb) cb(false);
    return false;
  }
  OutFrame f;
  f.dst = dst;
  f.payload_bits = payload_bits;
  f.payload = std::move(payload);
  f.cb = std::move(cb);
  f.seq = next_seq_++;
  f.enqueued_at = world_.now();
  queue_.push_back(std::move(f));
  if (m_queue_peak_ != nullptr) {
    const double depth = static_cast<double>(queue_depth());
    if (depth > m_queue_peak_->value()) m_queue_peak_->set(depth);
  }
  maybe_start();
  return true;
}

void CsmaMac::maybe_start() {
  if (state_ != State::kIdle || queue_.empty()) return;
  active_ = std::make_unique<OutFrame>(std::move(queue_.front()));
  queue_.pop_front();
  backoff_slots_ = -1;  // fresh draw on first backoff entry
  enter_difs();
}

void CsmaMac::enter_difs() {
  state_ = State::kDifs;
  const auto gen = bump_gen();
  if (radio_.carrier_busy() || radio_.transmitting()) {
    // Defer. Polling would re-check every slot; each check before the idle
    // edge reads busy and only re-arms (see RadioMedium::carrier_idle_at),
    // so one re-check at the first slot at or after the edge does the same.
    // A frame end heard meanwhile resyncs through on_radio_frame.
    defer_gen_ = gen;
    defer_from_ = world_.now();
    arm_recheck(params_.poll_deferral ? world_.now()
                                      : radio_.carrier_idle_at());
    return;
  }
  ++outstanding_events_;
  world_.sim().schedule_in(params_.difs, sim::EventCategory::kMac,
                           [this, gen] {
                             --outstanding_events_;
                             difs_elapsed(gen);
                           });
}

void CsmaMac::arm_recheck(sim::Time not_before) {
  const std::int64_t slot = params_.slot.count();
  const std::int64_t wait = (not_before - defer_from_).count();
  const std::int64_t k = std::max<std::int64_t>(1, (wait + slot - 1) / slot);
  const auto gen = defer_gen_;
  ++outstanding_events_;
  world_.sim().schedule_at(defer_from_ + params_.slot * k,
                           sim::EventCategory::kMac, [this, gen] {
    --outstanding_events_;
    if (gen == gen_ && state_ == State::kDifs) enter_difs();
  });
}

void CsmaMac::on_retune() {
  // Nothing to move unless an edge re-check is pending; the polling
  // oracle's is always the next slot already.
  if (params_.poll_deferral || state_ != State::kDifs || defer_gen_ != gen_) {
    return;
  }
  defer_gen_ = bump_gen();
  arm_recheck(world_.now());
}

void CsmaMac::difs_elapsed(std::uint64_t gen) {
  if (gen != gen_ || state_ != State::kDifs) return;
  if (radio_.carrier_busy() || radio_.transmitting()) {
    enter_difs();
    return;
  }
  state_ = State::kBackoff;
  if (backoff_slots_ < 0) {
    backoff_slots_ =
        static_cast<int>(rng_.uniform_int(0, std::max(cw_ - 1, 0)));
  }
  const auto g2 = bump_gen();
  ++outstanding_events_;
  world_.sim().schedule_in(params_.slot, sim::EventCategory::kMac,
                           [this, g2] {
                             --outstanding_events_;
                             backoff_slot(g2);
                           });
}

void CsmaMac::backoff_slot(std::uint64_t gen) {
  if (gen != gen_ || state_ != State::kBackoff) return;
  if (radio_.carrier_busy() || radio_.transmitting()) {
    // Freeze the counter and defer for another DIFS.
    enter_difs();
    return;
  }
  if (backoff_slots_ > 0) {
    --backoff_slots_;
    const auto g2 = bump_gen();
    ++outstanding_events_;
    world_.sim().schedule_in(params_.slot, sim::EventCategory::kMac,
                             [this, g2] {
                               --outstanding_events_;
                               backoff_slot(g2);
                             });
    return;
  }
  transmit_active();
}

void CsmaMac::transmit_active() {
  state_ = State::kTransmitting;
  ++stats_.sent_data;
  if (m_sent_data_) m_sent_data_->add();
  // Frames come from the world's arena: one recycled block per frame
  // instead of a heap malloc/free pair per transmission.
  auto frame = sim::arena_shared<MacFrame>(world_.arena());
  frame->src = address();
  frame->dst = active_->dst;
  frame->seq = active_->seq;
  frame->is_ack = false;
  frame->payload_bits = active_->payload_bits;
  frame->payload = active_->payload;

  const std::size_t bits = params_.header_bits + active_->payload_bits;
  const sim::Time air = radio_.transmit(bits, frame);
  const auto gen = bump_gen();
  ++outstanding_events_;
  world_.sim().schedule_in(air, sim::EventCategory::kMac,
                           [this, gen] {
                             --outstanding_events_;
                             tx_finished(gen);
                           });
}

void CsmaMac::tx_finished(std::uint64_t gen) {
  if (gen != gen_ || state_ != State::kTransmitting) return;
  if (active_->dst == kBroadcast) {
    finish_active(true);
    return;
  }
  state_ = State::kAwaitAck;
  const sim::Time ack_air =
      sim::Time::sec(static_cast<double>(params_.ack_bits) / bitrate());
  const sim::Time timeout = params_.sifs + ack_air + params_.slot * 4;
  const auto g2 = bump_gen();
  ++outstanding_events_;
  world_.sim().schedule_in(timeout, sim::EventCategory::kMac,
                           [this, g2] {
                             --outstanding_events_;
                             ack_timeout(g2);
                           });
}

void CsmaMac::ack_timeout(std::uint64_t gen) {
  if (gen != gen_ || state_ != State::kAwaitAck) return;
  ++stats_.retries;
  ++active_->retries;
  if (m_retries_) m_retries_->add();
  cw_ = std::min(cw_ * 2, params_.cw_max);
  if (active_->retries > params_.retry_limit) {
    ++stats_.drops_retry_limit;
    if (m_drops_retry_) m_drops_retry_->add();
    obs::emit_instant(world_, "phys.mac.drop_retry_limit",
                      lpc::Layer::kPhysical, sim::TraceLevel::kWarn);
    finish_active(false);
    return;
  }
  backoff_slots_ = -1;  // redraw from the widened window
  enter_difs();
}

void CsmaMac::finish_active(bool delivered) {
  cw_ = params_.cw_min;
  if (m_service_ != nullptr) {
    const sim::Time service = world_.now() - active_->enqueued_at;
    m_service_->record(static_cast<std::uint64_t>(service.count() / 1000));
  }
  auto cb = std::move(active_->cb);
  active_.reset();
  state_ = State::kIdle;
  bump_gen();
  if (cb) cb(delivered);
  maybe_start();
}

void CsmaMac::on_radio_frame(const env::FrameDelivery& delivery) {
  // Every frame end is a synchronization point: contending stations that
  // were deferring or counting down resume DIFS together, so equal backoff
  // draws genuinely collide (as in DCF).
  if (state_ == State::kDifs || state_ == State::kBackoff) {
    enter_difs();
  }
  if (!delivery.decodable) return;
  const auto* frame = static_cast<const MacFrame*>(delivery.payload.get());
  if (frame == nullptr) return;

  if (frame->is_ack) {
    if (frame->dst != address()) return;
    ++stats_.acks_received;
    if (state_ == State::kAwaitAck && active_ &&
        frame->seq == active_->seq && frame->src == active_->dst) {
      finish_active(true);
    }
    return;
  }

  if (frame->dst != address() && frame->dst != kBroadcast) return;

  if (frame->dst != kBroadcast) {
    // ACK first (ACKs bypass contention, SIFS after the data frame).
    send_ack(frame->src, frame->seq);
    auto it = last_seq_from_.find(frame->src);
    if (it != last_seq_from_.end() && it->second == frame->seq) {
      ++stats_.duplicates_dropped;
      return;
    }
    last_seq_from_[frame->src] = frame->seq;
  }
  ++stats_.delivered_up;
  if (m_delivered_up_) m_delivered_up_->add();
  if (rx_handler_) rx_handler_(frame->src, frame->payload, frame->payload_bits);
}

void CsmaMac::send_ack(MacAddress dst, std::uint32_t seq) {
  ++outstanding_events_;
  world_.sim().schedule_in(params_.sifs, sim::EventCategory::kMac,
                           [this, dst, seq] {
    --outstanding_events_;
    if (radio_.transmitting()) return;  // busy; sender will retry
    auto ack = sim::arena_shared<MacFrame>(world_.arena());
    ack->src = address();
    ack->dst = dst;
    ack->seq = seq;
    ack->is_ack = true;
    ++stats_.sent_acks;
    if (m_sent_acks_) m_sent_acks_->add();
    radio_.transmit(params_.ack_bits, ack);
  });
}

bool CsmaMac::snap_quiescent(std::string* why) const {
  if (state_ != State::kIdle || active_ || !queue_.empty() ||
      outstanding_events_ != 0) {
    if (why != nullptr) {
      *why = "mac " + std::to_string(address()) + " busy (queue " +
             std::to_string(queue_depth()) + ", outstanding " +
             std::to_string(outstanding_events_) + ")";
    }
    return false;
  }
  return true;
}

void CsmaMac::save(snap::SectionWriter& w) const {
  w.u64(stats_.enqueued);
  w.u64(stats_.sent_data);
  w.u64(stats_.sent_acks);
  w.u64(stats_.delivered_up);
  w.u64(stats_.duplicates_dropped);
  w.u64(stats_.retries);
  w.u64(stats_.drops_retry_limit);
  w.u64(stats_.drops_queue_full);
  w.u64(stats_.acks_received);
  w.u64(gen_);
  w.u32(static_cast<std::uint32_t>(cw_));
  w.u32(next_seq_);
  const sim::Rng::State rs = rng_.state();
  for (int i = 0; i < 4; ++i) w.u64(rs.s[i]);
  w.f64(rs.cached_normal);
  w.b(rs.has_cached_normal);
  // Duplicate-suppression map, sorted by sender for a canonical encoding.
  std::vector<std::pair<MacAddress, std::uint32_t>>& seqs = save_seqs_;
  seqs.assign(last_seq_from_.begin(), last_seq_from_.end());
  std::sort(seqs.begin(), seqs.end());
  w.u64(seqs.size());
  for (const auto& [src, seq] : seqs) {
    w.u64(src);
    w.u32(seq);
  }
}

void CsmaMac::restore(snap::SectionReader& r) {
  // Transient transmit state is forcibly normalized: the warmup run may
  // have been interrupted mid-frame, but the saved world was quiescent.
  queue_.clear();
  active_.reset();
  state_ = State::kIdle;
  backoff_slots_ = 0;
  outstanding_events_ = 0;
  stats_.enqueued = r.u64();
  stats_.sent_data = r.u64();
  stats_.sent_acks = r.u64();
  stats_.delivered_up = r.u64();
  stats_.duplicates_dropped = r.u64();
  stats_.retries = r.u64();
  stats_.drops_retry_limit = r.u64();
  stats_.drops_queue_full = r.u64();
  stats_.acks_received = r.u64();
  gen_ = r.u64();
  cw_ = static_cast<int>(r.u32());
  next_seq_ = r.u32();
  sim::Rng::State rs;
  for (int i = 0; i < 4; ++i) rs.s[i] = r.u64();
  rs.cached_normal = r.f64();
  rs.has_cached_normal = r.b();
  rng_.set_state(rs);
  last_seq_from_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const MacAddress src = r.u64();
    last_seq_from_[src] = r.u32();
  }
}

}  // namespace aroma::phys

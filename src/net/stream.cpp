#include "net/stream.hpp"

#include <algorithm>
#include <cmath>

#include "net/serialize.hpp"
#include "obs/metrics.hpp"
#include "snap/format.hpp"

namespace aroma::net {

namespace {
enum SegType : std::uint8_t { kSyn = 1, kSynAck = 2, kData = 3, kAck = 4,
                              kFin = 5 };
}  // namespace

// ---------------------------------------------------------------------------
// StreamManager

StreamManager::StreamManager(sim::World& world, NetStack& stack, Port port)
    : StreamManager(world, stack, port, Params{}) {}

StreamManager::StreamManager(sim::World& world, NetStack& stack, Port port,
                             Params params)
    : world_(world), stack_(stack), port_(port), params_(params) {
  stack_.bind(port_, [this](const Datagram& dg) { on_datagram(dg); });
}

std::shared_ptr<StreamConnection> StreamManager::connect(NodeId remote) {
  const std::uint64_t key =
      (stack_.node_id() << 20) ^ (next_conn_++);
  auto conn = std::shared_ptr<StreamConnection>(
      new StreamConnection(*this, remote, key, /*initiator=*/true));
  connections_[key] = conn;
  conn->send_segment(kSyn, 0, {});
  conn->arm_rto();
  return conn;
}

void StreamManager::on_datagram(const Datagram& dg) {
  ByteReader r(dg.data);
  const std::uint8_t type = r.u8();
  const std::uint64_t key = r.u64();
  const std::uint64_t seq = r.u64();
  const std::uint64_t ack = r.u64();
  const auto payload = r.bytes();
  if (!r.ok()) return;

  auto it = connections_.find(key);
  std::shared_ptr<StreamConnection> conn;
  if (it != connections_.end()) {
    conn = it->second;
  } else if (type == kSyn && on_accept_) {
    conn = std::shared_ptr<StreamConnection>(
        new StreamConnection(*this, dg.src.node, key, /*initiator=*/false));
    connections_[key] = conn;
    on_accept_(conn);
  } else {
    return;  // segment for an unknown (likely closed) connection
  }
  conn->handle_segment(type, seq, ack, payload);
  if (conn->closed()) connections_.erase(key);
}

// ---------------------------------------------------------------------------
// StreamConnection

StreamConnection::StreamConnection(StreamManager& mgr, NodeId peer,
                                   std::uint64_t key, bool initiator)
    : mgr_(mgr), peer_(peer), key_(key), initiator_(initiator),
      state_(initiator ? State::kSynSent : State::kSynReceived) {}

std::size_t StreamConnection::unacked_bytes() const {
  std::size_t n = send_buffer_.size();
  for (const auto& u : inflight_) n += u.data.size();
  return n;
}

void StreamConnection::send(std::vector<std::byte> data) {
  if (state_ == State::kClosed || fin_queued_) return;
  send_buffer_.insert(send_buffer_.end(), data.begin(), data.end());
  if (state_ == State::kEstablished) pump();
}

void StreamConnection::close() {
  if (state_ == State::kClosed || fin_queued_) return;
  fin_queued_ = true;
  if (state_ == State::kEstablished) pump();
}

void StreamConnection::send_segment(std::uint8_t type, std::uint64_t seq,
                                    std::span<const std::byte> payload) {
  ByteWriter w;
  w.u8(type);
  w.u64(key_);
  w.u64(seq);
  w.u64(type == kAck ? rcv_next_ : 0);
  w.bytes(payload);
  mgr_.stack().send(Endpoint{peer_, mgr_.port()}, mgr_.port(), w.take());
}

void StreamConnection::send_ack() { send_segment(kAck, 0, {}); }

void StreamConnection::pump() {
  const auto window = static_cast<std::size_t>(
      std::min<double>(std::floor(cwnd_),
                       static_cast<double>(mgr_.params().max_window_segments)));
  while (inflight_.size() < std::max<std::size_t>(window, 1)) {
    if (!send_buffer_.empty()) {
      const std::size_t n =
          std::min(send_buffer_.size(), mgr_.params().mss_bytes);
      Unacked u;
      u.seq = snd_next_;
      u.data.assign(send_buffer_.begin(),
                    send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
      send_buffer_.erase(send_buffer_.begin(),
                         send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
      u.first_sent = u.last_sent = mgr_.world().now();
      snd_next_ += n;
      stats_.bytes_sent += n;
      ++stats_.segments_sent;
      send_segment(kData, u.seq, u.data);
      inflight_.push_back(std::move(u));
      arm_rto();
    } else if (fin_queued_) {
      // FIN consumes one sequence number; send it once.
      bool fin_inflight = false;
      for (const auto& u : inflight_) fin_inflight |= u.fin;
      if (!fin_inflight && state_ != State::kFinSent) {
        Unacked u;
        u.seq = snd_next_;
        u.fin = true;
        u.first_sent = u.last_sent = mgr_.world().now();
        snd_next_ += 1;
        send_segment(kFin, u.seq, {});
        inflight_.push_back(std::move(u));
        state_ = State::kFinSent;
        arm_rto();
      }
      return;
    } else {
      return;
    }
  }
}

void StreamConnection::arm_rto() {
  const double rto = std::clamp(rto_s_, mgr_.params().min_rto_s,
                                mgr_.params().max_rto_s);
  // `this` outlives the cancel: every caller runs on a connection its
  // manager, a user or the firing RTO's own closure still holds.
  mgr_.world().sim().cancel(rto_);
  rto_ = mgr_.world().sim().schedule_in(
      sim::Time::sec(rto), [self = shared_from_this()] {
        self->rto_ = {};
        self->on_rto();
      });
}

void StreamConnection::disarm_rto() {
  mgr_.world().sim().cancel(rto_);
  rto_ = {};
}

void StreamConnection::on_rto() {
  // Handshake retransmission.
  if (state_ == State::kSynSent) {
    send_segment(kSyn, 0, {});
    rto_s_ = std::min(rto_s_ * 2.0, mgr_.params().max_rto_s);
    if (++handshake_retx_ > mgr_.params().max_retx) {
      become_closed();
      return;
    }
    arm_rto();
    return;
  }
  Unacked& u = inflight_.front();
  if (++u.retx > mgr_.params().max_retx) {
    become_closed();
    return;
  }
  u.last_sent = mgr_.world().now();
  ++stats_.retransmissions;
  stats_.bytes_retransmitted += u.data.size();
  send_segment(u.fin ? kFin : kData, u.seq, u.data);
  // Multiplicative decrease on loss.
  ssthresh_ = std::max(cwnd_ / 2.0, 1.0);
  cwnd_ = 1.0;
  rto_s_ = std::min(rto_s_ * 2.0, mgr_.params().max_rto_s);
  arm_rto();
}

void StreamConnection::update_rtt(double sample_s) {
  if (srtt_ == 0.0) {
    srtt_ = sample_s;
    rttvar_ = sample_s / 2.0;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample_s);
    srtt_ = 0.875 * srtt_ + 0.125 * sample_s;
  }
  rto_s_ = srtt_ + 4.0 * rttvar_;
  stats_.srtt_s = srtt_;
}

void StreamConnection::on_ack(std::uint64_t ack) {
  bool advanced = false;
  while (!inflight_.empty()) {
    const Unacked& u = inflight_.front();
    const std::uint64_t end = u.seq + (u.fin ? 1 : u.data.size());
    if (end > ack) break;
    if (u.retx == 0) {
      const sim::Time rtt = mgr_.world().now() - u.first_sent;
      update_rtt(rtt.seconds());
      if (obs::HdrHistogram* h = obs::hdr(mgr_.world(), "net.stream.rtt_us",
                                          lpc::Layer::kResource)) {
        h->record(static_cast<std::uint64_t>(rtt.count() / 1000));
      }
    }
    // AIMD growth: slow start below ssthresh, congestion avoidance above.
    if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;
    } else {
      cwnd_ += 1.0 / cwnd_;
    }
    stats_.cwnd_segments = cwnd_;
    const bool was_fin = u.fin;
    inflight_.pop_front();
    advanced = true;
    if (was_fin && state_ == State::kFinSent) {
      become_closed();
      return;
    }
  }
  if (advanced) {
    dup_acks_ = 0;
    last_ack_seen_ = ack;
    if (!inflight_.empty()) arm_rto();
    else disarm_rto();
    pump();
    return;
  }
  // Duplicate ACK.
  if (ack == last_ack_seen_ && !inflight_.empty()) {
    if (++dup_acks_ == 3) {
      Unacked& u = inflight_.front();
      ++u.retx;
      u.last_sent = mgr_.world().now();
      ++stats_.fast_retransmits;
      stats_.bytes_retransmitted += u.data.size();
      send_segment(u.fin ? kFin : kData, u.seq, u.data);
      ssthresh_ = std::max(cwnd_ / 2.0, 1.0);
      cwnd_ = ssthresh_;
      dup_acks_ = 0;
      arm_rto();
    }
  }
}

void StreamConnection::deliver_in_order() {
  for (;;) {
    auto it = reorder_.find(rcv_next_);
    if (it == reorder_.end()) break;
    std::vector<std::byte> data = std::move(it->second);
    reorder_.erase(it);
    rcv_next_ += data.size();
    stats_.bytes_delivered += data.size();
    if (on_data_) on_data_(data);
  }
  if (peer_fin_ && peer_fin_seq_ == rcv_next_) {
    rcv_next_ += 1;
    send_ack();
    become_closed();
  }
}

void StreamConnection::handle_segment(std::uint8_t type, std::uint64_t seq,
                                      std::uint64_t ack,
                                      std::span<const std::byte> payload) {
  if (state_ == State::kClosed) return;
  switch (type) {
    case kSyn:
      // (Re)send SYNACK; duplicate SYNs mean our SYNACK was lost.
      if (!initiator_) send_segment(kSynAck, 0, {});
      return;
    case kSynAck:
      if (state_ == State::kSynSent) {
        state_ = State::kEstablished;
        disarm_rto();
        send_ack();
        if (on_established_) on_established_();
        pump();
      }
      return;
    case kAck:
      if (state_ == State::kSynReceived) {
        state_ = State::kEstablished;
        if (on_established_) on_established_();
      }
      on_ack(ack);
      return;
    case kData:
    case kFin:
      if (state_ == State::kSynReceived) {
        state_ = State::kEstablished;
        if (on_established_) on_established_();
      }
      if (type == kFin) {
        peer_fin_ = true;
        peer_fin_seq_ = seq;
      } else if (seq >= rcv_next_ && !payload.empty()) {
        reorder_.emplace(seq,
                         std::vector<std::byte>(payload.begin(), payload.end()));
      }
      deliver_in_order();
      if (state_ != State::kClosed) send_ack();
      return;
    default:
      return;
  }
}

bool StreamConnection::snap_quiescent(std::string* why) const {
  if (state_ != State::kEstablished) {
    if (why) *why = "stream: connection not established";
    return false;
  }
  if (!inflight_.empty() || !send_buffer_.empty() || !reorder_.empty() ||
      fin_queued_ || peer_fin_) {
    if (why) *why = "stream: bytes in flight";
    return false;
  }
  if (rto_.valid()) {
    if (why) *why = "stream: RTO event scheduled";
    return false;
  }
  return true;
}

void StreamConnection::save(snap::SectionWriter& w) const {
  w.u64(snd_next_);
  w.f64(cwnd_);
  w.f64(ssthresh_);
  w.u32(static_cast<std::uint32_t>(dup_acks_));
  w.u64(last_ack_seen_);
  w.u64(rcv_next_);
  w.f64(srtt_);
  w.f64(rttvar_);
  w.f64(rto_s_);
  w.u32(static_cast<std::uint32_t>(handshake_retx_));
  w.u64(stats_.bytes_sent);
  w.u64(stats_.bytes_retransmitted);
  w.u64(stats_.bytes_delivered);
  w.u64(stats_.segments_sent);
  w.u64(stats_.retransmissions);
  w.u64(stats_.fast_retransmits);
  w.f64(stats_.srtt_s);
  w.f64(stats_.cwnd_segments);
}

void StreamConnection::restore(snap::SectionReader& r) {
  // The warmed-up connection may hold in-flight transport state; the
  // checkpoint was quiescent, so normalize to that.
  send_buffer_.clear();
  inflight_.clear();
  reorder_.clear();
  state_ = State::kEstablished;
  dup_acks_ = 0;
  fin_queued_ = false;
  peer_fin_ = false;
  peer_fin_seq_ = 0;
  // Its event went with Simulator::clear_pending; cancelling the handle
  // could match a re-armed event of the same identity.
  rto_ = {};

  snd_next_ = r.u64();
  cwnd_ = r.f64();
  ssthresh_ = r.f64();
  dup_acks_ = static_cast<int>(r.u32());
  last_ack_seen_ = r.u64();
  rcv_next_ = r.u64();
  srtt_ = r.f64();
  rttvar_ = r.f64();
  rto_s_ = r.f64();
  handshake_retx_ = static_cast<int>(r.u32());
  stats_.bytes_sent = r.u64();
  stats_.bytes_retransmitted = r.u64();
  stats_.bytes_delivered = r.u64();
  stats_.segments_sent = r.u64();
  stats_.retransmissions = r.u64();
  stats_.fast_retransmits = r.u64();
  stats_.srtt_s = r.f64();
  stats_.cwnd_segments = r.f64();
}

// Closed connections are invisible to checkpointing. They linger in the
// map only until a stray late segment garbage-collects them (see
// on_datagram), they hold no transport state, and a segment addressed to
// one is a no-op whether the entry exists or not — so skipping them in
// save/quiescence and purging them at restore cannot change behavior,
// while serializing them would make the blob depend on GC timing.
bool StreamManager::snap_quiescent(std::string* why) const {
  for (const auto& [key, conn] : connections_) {
    if (conn->closed()) continue;
    if (!conn->snap_quiescent(why)) return false;
  }
  return true;
}

void StreamManager::save(snap::SectionWriter& w) const {
  w.u32(next_conn_);
  std::uint64_t live = 0;
  for (const auto& [key, conn] : connections_) {
    if (!conn->closed()) ++live;
  }
  w.u64(live);
  for (const auto& [key, conn] : connections_) {
    if (conn->closed()) continue;
    w.u64(key);
    conn->save(w);
  }
}

void StreamManager::restore(snap::SectionReader& r) {
  std::erase_if(connections_,
                [](const auto& e) { return e.second->closed(); });
  next_conn_ = r.u32();
  const std::uint64_t count = r.u64();
  if (count != connections_.size()) {
    throw snap::SnapError(
        "stream restore: connection count mismatch (blob " +
        std::to_string(count) + ", rebuilt " +
        std::to_string(connections_.size()) + ")");
  }
  for (auto& [key, conn] : connections_) {
    if (r.u64() != key) {
      throw snap::SnapError("stream restore: connection key mismatch");
    }
    conn->restore(r);
  }
}

void StreamConnection::become_closed() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  disarm_rto();
  if (on_closed_) on_closed_();
}

}  // namespace aroma::net

// Reliable, in-order byte streams over the datagram stack (TCP-lite).
//
// Sliding-window ARQ with cumulative ACKs, adaptive retransmission timeout
// (SRTT/RTTVAR), AIMD congestion control, and fast retransmit on triple
// duplicate ACKs. The VNC-style remote framebuffer protocol runs on top of
// this, as the real Smart Projector ran VNC over TCP.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/stack.hpp"
#include "sim/world.hpp"

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::net {

struct StreamStats {
  std::uint64_t bytes_sent = 0;        // first transmissions only
  std::uint64_t bytes_retransmitted = 0;
  std::uint64_t bytes_delivered = 0;   // handed to the application, in order
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;
  double srtt_s = 0.0;
  double cwnd_segments = 1.0;
};

class StreamManager;

/// One endpoint of an established (or establishing) connection.
class StreamConnection : public std::enable_shared_from_this<StreamConnection> {
 public:
  using DataHandler = std::function<void(std::span<const std::byte>)>;
  using EventHandler = std::function<void()>;

  /// Queues bytes for in-order delivery to the peer.
  void send(std::vector<std::byte> data);

  void set_data_handler(DataHandler h) { on_data_ = std::move(h); }
  void set_established_handler(EventHandler h) { on_established_ = std::move(h); }
  void set_closed_handler(EventHandler h) { on_closed_ = std::move(h); }

  /// Graceful close: flushes queued data, then sends FIN.
  void close();

  bool established() const { return state_ == State::kEstablished; }
  bool closed() const { return state_ == State::kClosed; }
  NodeId peer() const { return peer_; }

  /// Bytes accepted by send() but not yet acknowledged — the backlog an
  /// adaptive sender (e.g. the RFB server) uses for pacing.
  std::size_t unacked_bytes() const;

  const StreamStats& stats() const { return stats_; }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // The RTO closure captures shared_from_this and cannot be serialized; a
  // connection is only checkpointable once established with nothing in
  // flight, which is exactly when no RTO is armed.
  bool snap_quiescent(std::string* why) const;
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  friend class StreamManager;
  enum class State : std::uint8_t {
    kSynSent, kSynReceived, kEstablished, kFinSent, kClosed
  };

  StreamConnection(StreamManager& mgr, NodeId peer, std::uint64_t key,
                   bool initiator);

  void handle_segment(std::uint8_t type, std::uint64_t seq, std::uint64_t ack,
                      std::span<const std::byte> payload);
  void pump();                  // move bytes from buffer into flight
  void send_segment(std::uint8_t type, std::uint64_t seq,
                    std::span<const std::byte> payload);
  void send_ack();
  /// Arms the one RTO, cancelling the one it supersedes.
  void arm_rto();
  void disarm_rto();
  void on_rto();
  void on_ack(std::uint64_t ack);
  void deliver_in_order();
  void update_rtt(double sample_s);
  void become_closed();

  StreamManager& mgr_;
  NodeId peer_;
  std::uint64_t key_;
  bool initiator_;
  State state_ = State::kSynSent;

  // Send side.
  std::deque<std::byte> send_buffer_;
  struct Unacked {
    std::uint64_t seq;
    std::vector<std::byte> data;
    sim::Time first_sent;
    sim::Time last_sent;
    int retx = 0;
    bool fin = false;
  };
  std::deque<Unacked> inflight_;
  std::uint64_t snd_next_ = 0;   // next new byte sequence to send
  double cwnd_ = 2.0;            // segments
  double ssthresh_ = 32.0;
  int dup_acks_ = 0;
  std::uint64_t last_ack_seen_ = 0;
  bool fin_queued_ = false;

  // Receive side.
  std::uint64_t rcv_next_ = 0;
  std::map<std::uint64_t, std::vector<std::byte>> reorder_;
  bool peer_fin_ = false;
  std::uint64_t peer_fin_seq_ = 0;

  // RTO state.
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  double rto_s_ = 0.2;
  // Pending while the handshake or bytes in flight await an ACK.
  sim::EventHandle rto_;
  int handshake_retx_ = 0;

  DataHandler on_data_;
  EventHandler on_established_;
  EventHandler on_closed_;
  StreamStats stats_;
};

/// Owns a port on a NetStack and multiplexes stream connections over it.
class StreamManager {
 public:
  struct Params {
    std::size_t mss_bytes = 1200;
    std::size_t max_window_segments = 32;
    double min_rto_s = 0.05;
    double max_rto_s = 2.0;
    int max_retx = 12;   // give up and close after this many RTOs
  };

  using AcceptHandler =
      std::function<void(const std::shared_ptr<StreamConnection>&)>;

  StreamManager(sim::World& world, NetStack& stack, Port port);
  StreamManager(sim::World& world, NetStack& stack, Port port, Params params);
  ~StreamManager() { stack_.unbind(port_); }
  StreamManager(const StreamManager&) = delete;
  StreamManager& operator=(const StreamManager&) = delete;

  /// Server side: accept incoming connections.
  void listen(AcceptHandler on_accept) { on_accept_ = std::move(on_accept); }

  /// Client side: open a connection to `remote` (same port on both ends).
  std::shared_ptr<StreamConnection> connect(NodeId remote);

  sim::World& world() { return world_; }
  NetStack& stack() { return stack_; }
  Port port() const { return port_; }
  const Params& params() const { return params_; }

  const std::map<std::uint64_t, std::shared_ptr<StreamConnection>>&
  connections() const {
    return connections_;
  }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // Connection *identity* (keys, handlers) is structural: restore matches
  // the serialized connections one-to-one against the already-rebuilt set by
  // key and overwrites their transport state. A key mismatch means the
  // structural warmup diverged from the checkpointed run and is an error.
  bool snap_quiescent(std::string* why) const;
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  friend class StreamConnection;
  void on_datagram(const Datagram& dg);

  sim::World& world_;
  NetStack& stack_;
  Port port_;
  Params params_;
  AcceptHandler on_accept_;
  std::map<std::uint64_t, std::shared_ptr<StreamConnection>> connections_;
  std::uint32_t next_conn_ = 1;
};

}  // namespace aroma::net

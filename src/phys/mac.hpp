// CSMA/CA medium access control in the style of 802.11 DCF.
//
// Carrier sense, DIFS deference, slotted binary-exponential backoff,
// per-frame ACKs with retransmission, and duplicate suppression. Broadcast
// frames are sent once without acknowledgement. Collisions are not decided
// by the MAC: overlapping transmissions simply fail SINR at the medium and
// the resulting ACK timeouts drive the backoff, as on real hardware.
//
// Deferral is edge-driven. While carrier sense reads busy, DCF re-checks
// every slot; every check before the carrier's idle edge reads busy again
// (RadioMedium::carrier_idle_at explains why). So a deferring station
// schedules one re-check, at the first instant of its slot grid at or
// after Transceiver::carrier_idle_at(), and sends the same frames at the
// same instants as the per-slot loop. A channel or power change re-arms
// it at the grid's next slot; a radio that can move keeps re-checking
// every slot. Params::poll_deferral keeps the per-slot loop as the test
// oracle. The backoff countdown still spends one event per slot.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "phys/transceiver.hpp"
#include "sim/world.hpp"

namespace aroma::obs {
class Counter;
class Gauge;
class HdrHistogram;
}  // namespace aroma::obs

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::phys {

using MacAddress = std::uint64_t;
inline constexpr MacAddress kBroadcast = ~0ULL;

/// Payload handed to / received from the MAC; opaque bytes-equivalent.
using MacPayload = std::shared_ptr<const void>;

/// The unit the MAC puts on the air (carried through the medium as the
/// opaque payload pointer).
struct MacFrame {
  MacAddress src = 0;
  MacAddress dst = 0;
  std::uint32_t seq = 0;
  bool is_ack = false;
  std::size_t payload_bits = 0;
  MacPayload payload;
};

struct MacStats {
  std::uint64_t enqueued = 0;
  std::uint64_t sent_data = 0;       // transmission attempts incl. retries
  std::uint64_t sent_acks = 0;
  std::uint64_t delivered_up = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t drops_retry_limit = 0;
  std::uint64_t drops_queue_full = 0;
  std::uint64_t acks_received = 0;
};

class CsmaMac {
 public:
  struct Params {
    sim::Time slot = sim::Time::us(20);
    sim::Time difs = sim::Time::us(50);
    sim::Time sifs = sim::Time::us(10);
    int cw_min = 16;
    int cw_max = 1024;
    int retry_limit = 7;
    std::size_t queue_limit = 64;
    std::size_t header_bits = 272;  // MAC header + FCS
    std::size_t ack_bits = 112;
    /// Test oracle only (like RadioMediumOptions::batch; no .scn, CLI or
    /// environment switch reaches it): re-check carrier sense every slot
    /// while deferring instead of once at the idle edge. Both send the
    /// same frames at the same instants; phys_test asserts it.
    bool poll_deferral = false;
  };

  /// src: sender MAC address; bits: payload size as transmitted.
  using ReceiveHandler =
      std::function<void(MacAddress src, const MacPayload& payload,
                         std::size_t payload_bits)>;
  /// Invoked once per enqueued frame: true on ACK (or broadcast sent),
  /// false when the retry limit or queue limit drops it.
  using SendCallback = std::function<void(bool delivered)>;

  CsmaMac(sim::World& world, Transceiver& radio, sim::Rng rng)
      : CsmaMac(world, radio, rng, Params{}) {}
  CsmaMac(sim::World& world, Transceiver& radio, sim::Rng rng, Params params);

  MacAddress address() const { return radio_.radio_config().id; }

  /// Enqueues a frame. Returns false (and fires cb(false)) when the
  /// transmit queue is full.
  bool send(MacAddress dst, std::size_t payload_bits, MacPayload payload,
            SendCallback cb = {});

  void set_receive_handler(ReceiveHandler h) { rx_handler_ = std::move(h); }

  const MacStats& stats() const { return stats_; }
  const Params& params() const { return params_; }
  std::size_t queue_depth() const { return queue_.size() + (active_ ? 1 : 0); }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // MAC timer events capture generation tokens and frame payloads, so they
  // are never serialized; checkpoints are only taken when the MAC is
  // quiescent (idle, empty queue, no outstanding timer events —
  // scn::ScenarioInstance::settle() runs the world until every MAC is).
  bool snap_quiescent(std::string* why) const;
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  struct OutFrame {
    MacAddress dst;
    std::size_t payload_bits;
    MacPayload payload;
    SendCallback cb;
    std::uint32_t seq;
    int retries = 0;
    sim::Time enqueued_at = sim::Time::zero();  // for service-time latency
  };

  enum class State { kIdle, kDifs, kBackoff, kTransmitting, kAwaitAck };

  void maybe_start();
  void enter_difs();
  /// Schedules the deferral's one pending carrier re-check at the first
  /// instant of its slot grid (defer_from_ + k * slot, k >= 1) at or after
  /// `not_before`.
  void arm_recheck(sim::Time not_before);
  /// Transceiver retune hook: a pending re-check waits for an idle edge the
  /// retune may have moved, so it falls back to the grid's next slot.
  void on_retune();
  void difs_elapsed(std::uint64_t gen);
  void backoff_slot(std::uint64_t gen);
  void transmit_active();
  void tx_finished(std::uint64_t gen);
  void ack_timeout(std::uint64_t gen);
  void finish_active(bool delivered);
  void on_radio_frame(const env::FrameDelivery& delivery);
  void send_ack(MacAddress dst, std::uint32_t seq);
  double bitrate() const;
  std::uint64_t bump_gen() { return ++gen_; }

  sim::World& world_;
  Transceiver& radio_;
  sim::Rng rng_;
  Params params_;
  ReceiveHandler rx_handler_;
  MacStats stats_;

  std::deque<OutFrame> queue_;
  std::unique_ptr<OutFrame> active_;
  State state_ = State::kIdle;
  std::uint64_t gen_ = 0;  // invalidates stale timer events on transitions
  // Deferral in progress: its re-check carries defer_gen_ and its slot grid
  // starts at defer_from_ (the instant carrier sense first read busy).
  std::uint64_t defer_gen_ = 0;
  sim::Time defer_from_ = sim::Time::zero();
  int cw_ = 16;
  int backoff_slots_ = 0;
  std::uint32_t next_seq_ = 1;
  std::unordered_map<MacAddress, std::uint32_t> last_seq_from_;
  // Scheduled-but-unfired MAC events (live or stale-gen). Nonzero blocks
  // checkpointing: stale timer events cannot be re-created on restore.
  int outstanding_events_ = 0;

  // Telemetry handles (null when no registry is attached to the world).
  // Counters aggregate across every MAC in the world; the queue-depth gauge
  // tracks the worldwide peak.
  obs::Counter* m_sent_data_ = nullptr;
  obs::Counter* m_sent_acks_ = nullptr;
  obs::Counter* m_delivered_up_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_drops_retry_ = nullptr;
  obs::Counter* m_drops_queue_ = nullptr;
  obs::Gauge* m_queue_peak_ = nullptr;
  obs::HdrHistogram* m_service_ = nullptr;  // enqueue -> cb latency, µs

  // save()'s sorted copy of last_seq_from_, reused so steady-state
  // checkpoints do not allocate. Last: off the hot members' cache lines.
  mutable std::vector<std::pair<MacAddress, std::uint32_t>> save_seqs_;
};

}  // namespace aroma::phys

// CSMA/CA medium access control in the style of 802.11 DCF.
//
// Carrier sense, DIFS deference, slotted binary-exponential backoff,
// per-frame ACKs with retransmission, and duplicate suppression. Broadcast
// frames are sent once without acknowledgement. Collisions are not decided
// by the MAC: overlapping transmissions simply fail SINR at the medium and
// the resulting ACK timeouts drive the backoff, as on real hardware.
//
// Carrier sense is edge-driven; DCF's per-slot loop survives only as the
// test oracle (Params::poll_carrier). Both put the same frames on the air
// at the same instants (DESIGN "Edge-driven CSMA deferral and backoff"):
//  - Deferral: every per-slot check before the carrier's idle edge reads
//    busy again (RadioMedium::carrier_idle_at), so a deferring station
//    schedules one re-check, at the first instant of its slot grid at or
//    after Transceiver::carrier_idle_at().
//  - Backoff: energy rises only when a frame starts, so a countdown of B
//    slots is one event at its last slot plus one carrier check at the
//    first slot instant after each frame start it can sense. The
//    RadioMedium, which sees every start, schedules both and keeps live
//    countdowns in the per-slot loop's same-instant order.
// A channel or power change re-checks at the grid's next slot; a radio
// that can move keeps checking every slot.
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

class CsmaMac final : public env::Countdown {
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
    /// environment switch reaches it): DCF's per-slot loop, one carrier
    /// check per slot while deferring and while counting down. Both send
    /// the same frames at the same instants; phys_test asserts it.
    bool poll_carrier = false;
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
  ~CsmaMac();
  CsmaMac(const CsmaMac&) = delete;
  CsmaMac& operator=(const CsmaMac&) = delete;

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
  // MAC events carry frame payloads, so they are never serialized;
  // checkpoints are only taken when the MAC is quiescent (idle, empty
  // queue, no pending timer and no ACK waiting out its SIFS —
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

  // env::Countdown: the medium runs an edge-driven countdown's events.
  const env::RadioEndpoint& countdown_radio() const override { return radio_; }
  bool countdown_slot(bool final) override;

  void maybe_start();
  void enter_difs();
  /// Schedules the MAC's one pending timer at `at`, cancelling the one it
  /// supersedes. It fires into on_timer, which dispatches on the state.
  void arm_timer(sim::Time at);
  void on_timer();
  /// Schedules the deferral's re-check at the first instant of its slot
  /// grid (defer_from_ + k * slot, k >= 1) at or after `not_before`.
  void arm_recheck(sim::Time not_before);
  /// Transceiver retune hook: a pending re-check waits for an idle edge the
  /// retune may have moved, so it falls back to the grid's next slot; a
  /// countdown checks carrier there.
  void on_retune();
  void difs_elapsed();
  /// The oracle's per-slot countdown step.
  void backoff_slot();
  /// Leaves an edge-driven countdown, keeping the slots the per-slot loop
  /// would have left: B minus the slot instants it has passed before now.
  void stop_countdown();
  void transmit_active();
  void tx_finished();
  void ack_timeout();
  void finish_active(bool delivered);
  void on_radio_frame(const env::FrameDelivery& delivery);
  void send_ack(MacAddress dst, std::uint32_t seq);
  double bitrate() const;

  sim::World& world_;
  Transceiver& radio_;
  sim::Rng rng_;
  Params params_;
  ReceiveHandler rx_handler_;
  MacStats stats_;

  std::deque<OutFrame> queue_;
  std::unique_ptr<OutFrame> active_;
  State state_ = State::kIdle;
  // The one pending timer of the current state: the DIFS expiry or, while
  // deferring_, the deferral re-check (its slot grid starts at defer_from_,
  // the instant carrier sense read busy); the oracle's per-slot countdown
  // step; the frame end; or the ACK timeout. Invalid while idle and during
  // an edge-driven countdown, whose events the medium owns.
  sim::EventHandle timer_;
  bool deferring_ = false;
  sim::Time defer_from_ = sim::Time::zero();
  int cw_ = 16;
  // Slots left to count; during an edge-driven countdown, the slots it
  // started with at count_from_.
  int backoff_slots_ = 0;
  sim::Time count_from_ = sim::Time::zero();
  std::uint32_t next_seq_ = 1;
  std::unordered_map<MacAddress, std::uint32_t> last_seq_from_;
  // ACKs waiting out their SIFS; never superseded, so counted, not held.
  int pending_acks_ = 0;

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

// Half-duplex radio transceiver: the bridge between a device and the
// shared RadioMedium.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>

#include "env/mobility.hpp"
#include "env/radio_medium.hpp"
#include "phys/battery.hpp"
#include "sim/world.hpp"

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::phys {

/// A radio bound to a mobility model. Registers with the medium on
/// construction and detaches on destruction (RAII). Enforces half-duplex:
/// the receiver reports disabled while a transmission is in flight.
class Transceiver final : public env::RadioEndpoint {
 public:
  struct Params {
    env::RadioConfig config{};
    double tx_power_dbm = 15.0;
    double bitrate_bps = 2e6;
  };

  using ReceiveHandler = std::function<void(const env::FrameDelivery&)>;

  Transceiver(sim::World& world, env::RadioMedium& medium,
              const env::MobilityModel* mobility, Params params);
  ~Transceiver() override;
  Transceiver(const Transceiver&) = delete;
  Transceiver& operator=(const Transceiver&) = delete;

  // env::RadioEndpoint interface -------------------------------------------
  /// Immobile radios (max_speed_mps() == 0, e.g. StaticMobility) resolve
  /// to a position cached at construction: the per-backoff-slot CCA path
  /// calls this, and the mobility virtual dispatch is measurable there.
  /// A post-construction teleport (StaticMobility::set_position) is not
  /// covered — the same contract RadioMedium::invalidate_positions()
  /// documents for its own snapshot caches.
  env::Vec2 position() const override {
    return fixed_pos_valid_ ? fixed_pos_
                            : mobility_->position_at(world_.now());
  }
  const env::RadioConfig& radio_config() const override { return params_.config; }
  bool receiver_enabled() const override;
  void on_frame(const env::FrameDelivery& delivery) override;
  double max_speed_mps() const override {
    return mobility_ ? mobility_->max_speed_mps() : 0.0;
  }

  // Device-facing API -------------------------------------------------------
  /// Puts `bits` on the air at the configured bitrate; returns the airtime.
  /// Must not be called while already transmitting.
  sim::Time transmit(std::size_t bits, std::shared_ptr<const void> payload);

  double bitrate_bps() const { return params_.bitrate_bps; }

  // Inline: the CSMA MAC polls both once per backoff slot.
  bool transmitting() const { return world_.now() < tx_busy_until_; }
  bool carrier_busy() const {
    return medium_.carrier_busy_at(*this, params_.config, position());
  }
  /// Earliest instant from which carrier_busy() and transmitting() both
  /// read false if no new frame starts: the later of the medium's CCA
  /// idle edge (RadioMedium::carrier_idle_at) and the end of this radio's
  /// own frame. A radio that can move returns now: its sensed energy may
  /// change between any two instants.
  sim::Time carrier_idle_at() const {
    if (max_speed_mps() > 0.0) return world_.now();
    return std::max(medium_.carrier_idle_at(*this), tx_busy_until_);
  }

  void set_receive_handler(ReceiveHandler h) { handler_ = std::move(h); }
  /// Invoked after set_powered / set_channel: an idle edge computed before
  /// is no longer a promise (the CSMA MAC re-arms its deferral on it).
  void set_retune_handler(std::function<void()> h) { retune_ = std::move(h); }
  void set_powered(bool on) {
    powered_ = on;
    if (retune_) retune_();
  }
  bool powered() const { return powered_; }
  void set_channel(int channel) {
    params_.config.channel = channel;
    if (retune_) retune_();
  }
  int channel() const { return params_.config.channel; }
  double tx_power_dbm() const { return params_.tx_power_dbm; }

  /// Optional battery: tx/rx airtime is drained from it.
  void set_battery(Battery* battery) { battery_ = battery; }

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }

  // --- checkpoint/restore ---------------------------------------------------
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  sim::World& world_;
  env::RadioMedium& medium_;
  const env::MobilityModel* mobility_;
  Params params_;
  ReceiveHandler handler_;
  std::function<void()> retune_;
  Battery* battery_ = nullptr;
  bool powered_ = true;
  bool fixed_pos_valid_ = false;
  env::Vec2 fixed_pos_{};
  sim::Time tx_busy_until_ = sim::Time::zero();
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
};

}  // namespace aroma::phys

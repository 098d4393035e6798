// Tests for the environment layer: propagation, the radio medium,
// acoustics, and mobility.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "env/acoustics.hpp"
#include "sim/random.hpp"
#include "env/environment.hpp"
#include "env/geometry.hpp"
#include "env/mobility.hpp"
#include "env/propagation.hpp"
#include "env/radio_medium.hpp"
#include "sim/world.hpp"

namespace aroma::env {
namespace {

// --- Geometry ----------------------------------------------------------

TEST(Geometry, VectorOps) {
  const Vec2 a{3, 4};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, a), 5.0);
  EXPECT_EQ((a + Vec2{1, 1}), (Vec2{4, 5}));
  EXPECT_EQ((a * 2.0), (Vec2{6, 8}));
  EXPECT_DOUBLE_EQ(a.normalized().norm(), 1.0);
  EXPECT_DOUBLE_EQ(Vec2{}.normalized().norm(), 0.0);
}

TEST(Geometry, RectContainsAndClamp) {
  const Rect r{{0, 0}, {10, 20}};
  EXPECT_TRUE(r.contains({5, 5}));
  EXPECT_FALSE(r.contains({11, 5}));
  EXPECT_EQ(r.clamp({-5, 25}), (Vec2{0, 20}));
  EXPECT_EQ(r.center(), (Vec2{5, 10}));
  EXPECT_DOUBLE_EQ(r.width(), 10.0);
}

// --- Propagation -------------------------------------------------------

TEST(Propagation, DbmMwRoundTrip) {
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_mw(10.0), 10.0, 1e-9);
  EXPECT_NEAR(mw_to_dbm(dbm_to_mw(-73.5)), -73.5, 1e-9);
  EXPECT_LE(mw_to_dbm(0.0), -250.0);
}

TEST(Propagation, ThermalNoise) {
  // 22 MHz, 7 dB NF: about -93.6 dBm.
  EXPECT_NEAR(thermal_noise_dbm(22e6, 7.0), -93.6, 0.2);
}

TEST(Propagation, ChannelOverlap) {
  EXPECT_DOUBLE_EQ(channel_overlap(6, 6), 1.0);
  EXPECT_DOUBLE_EQ(channel_overlap(1, 6), 0.0);
  EXPECT_DOUBLE_EQ(channel_overlap(1, 11), 0.0);
  EXPECT_GT(channel_overlap(5, 6), 0.0);
  EXPECT_LT(channel_overlap(5, 6), 1.0);
  EXPECT_DOUBLE_EQ(channel_overlap(3, 6), channel_overlap(6, 3));
}

TEST(Propagation, ChannelCenters) {
  EXPECT_DOUBLE_EQ(channel_center_mhz(1), 2412.0);
  EXPECT_DOUBLE_EQ(channel_center_mhz(11), 2462.0);
}

TEST(PathLoss, MonotoneInDistance) {
  PathLossModel::Params p;
  p.shadowing_sigma_db = 0.0;
  PathLossModel m(p);
  double prev = m.loss_db({0, 0}, {1, 0});
  for (double d = 2.0; d < 100.0; d *= 2.0) {
    const double loss = m.loss_db({0, 0}, {d, 0});
    EXPECT_GT(loss, prev);
    prev = loss;
  }
}

TEST(PathLoss, ReferenceLossAtOneMeter) {
  PathLossModel::Params p;
  p.shadowing_sigma_db = 0.0;
  p.ref_loss_db = 40.0;
  PathLossModel m(p);
  EXPECT_NEAR(m.loss_db({0, 0}, {1, 0}), 40.0, 1e-9);
  // 10x distance at exponent 3 adds 30 dB.
  EXPECT_NEAR(m.loss_db({0, 0}, {10, 0}), 70.0, 1e-9);
}

TEST(PathLoss, ShadowingDeterministicAndReciprocal) {
  PathLossModel m;  // default sigma 4 dB
  const double ab = m.loss_db({0, 0}, {20, 0}, 1, 2);
  EXPECT_DOUBLE_EQ(ab, m.loss_db({0, 0}, {20, 0}, 1, 2));
  EXPECT_DOUBLE_EQ(ab, m.loss_db({0, 0}, {20, 0}, 2, 1));  // reciprocal
  // Different link, generally different shadowing.
  EXPECT_NE(ab, m.loss_db({0, 0}, {20, 0}, 1, 3));
}

TEST(PathLoss, ShadowingRoughlyZeroMean) {
  PathLossModel::Params p;
  p.shadowing_sigma_db = 6.0;
  PathLossModel m(p);
  PathLossModel::Params p0 = p;
  p0.shadowing_sigma_db = 0.0;
  PathLossModel base(p0);
  double sum = 0.0;
  const int n = 2'000;
  for (int i = 1; i <= n; ++i) {
    sum += m.loss_db({0, 0}, {20, 0}, 100 + i, 900 + i) -
           base.loss_db({0, 0}, {20, 0});
  }
  EXPECT_NEAR(sum / n, 0.0, 0.5);
}

TEST(PathLoss, NominalRange) {
  PathLossModel::Params p;
  p.shadowing_sigma_db = 0.0;
  p.exponent = 3.0;
  p.ref_loss_db = 40.0;
  PathLossModel m(p);
  // 15 dBm tx, -90 sensitivity: budget 105-40=65 dB -> 10^(65/30) m.
  EXPECT_NEAR(m.nominal_range_m(15.0, -90.0), std::pow(10.0, 65.0 / 30.0),
              1e-6);
}

TEST(Sinr, Computation) {
  // Signal -60 dBm, noise -90 dBm, no interference: SINR = 30 dB.
  EXPECT_NEAR(sinr_db(-60.0, 0.0, -90.0), 30.0, 1e-9);
  // Interference equal to signal power: SINR ~ 0 dB (noise negligible).
  EXPECT_NEAR(sinr_db(-60.0, dbm_to_mw(-60.0), -120.0), 0.0, 0.01);
}

TEST(Sinr, RequiredThresholdsIncreaseWithRate) {
  EXPECT_LT(required_sinr_db(1e6), required_sinr_db(2e6));
  EXPECT_LT(required_sinr_db(2e6), required_sinr_db(11e6));
  EXPECT_LT(required_sinr_db(11e6), required_sinr_db(54e6));
}

// --- RadioMedium ---------------------------------------------------------

class TestRadio : public RadioEndpoint {
 public:
  TestRadio(std::uint64_t id, Vec2 pos, int channel = 6) : pos_(pos) {
    cfg_.id = id;
    cfg_.channel = channel;
  }
  Vec2 position() const override { return pos_; }
  const RadioConfig& radio_config() const override { return cfg_; }
  bool receiver_enabled() const override { return rx_on_; }
  void on_frame(const FrameDelivery& d) override { deliveries.push_back(d); }

  RadioConfig cfg_;
  Vec2 pos_;
  bool rx_on_ = true;
  std::vector<FrameDelivery> deliveries;
};

PathLossModel flat_model() {
  PathLossModel::Params p;
  p.shadowing_sigma_db = 0.0;
  return PathLossModel(p);
}

// Appends the six MediumStats counters to a bit-exact trace.
void push_stats(std::vector<std::uint64_t>& trace, const MediumStats& ms) {
  for (const std::uint64_t v :
       {ms.transmissions, ms.deliveries_attempted, ms.deliveries_decodable,
        ms.losses_sinr, ms.losses_half_duplex, ms.losses_rx_off}) {
    trace.push_back(v);
  }
}

TEST(RadioMedium, DeliversToNearbyReceiver) {
  sim::World w(1);
  RadioMedium medium(w, flat_model());
  TestRadio tx(1, {0, 0}), rx(2, {5, 0});
  medium.attach(&tx);
  medium.attach(&rx);
  medium.transmit(tx, 8'000, 2e6, 15.0, nullptr);
  w.sim().run();
  ASSERT_EQ(rx.deliveries.size(), 1u);
  EXPECT_TRUE(rx.deliveries[0].decodable);
  EXPECT_GT(rx.deliveries[0].rssi_dbm, -60.0);
  EXPECT_TRUE(tx.deliveries.empty());  // no self-delivery
  EXPECT_EQ(medium.stats().deliveries_decodable, 1u);
}

TEST(RadioMedium, OutOfRangeReceiverHearsNothing) {
  sim::World w(1);
  RadioMedium medium(w, flat_model());
  TestRadio tx(1, {0, 0}), rx(2, {100'000, 0});
  medium.attach(&tx);
  medium.attach(&rx);
  medium.transmit(tx, 8'000, 2e6, 15.0, nullptr);
  w.sim().run();
  EXPECT_TRUE(rx.deliveries.empty());
}

TEST(RadioMedium, OrthogonalChannelsDoNotInteract) {
  sim::World w(1);
  RadioMedium medium(w, flat_model());
  TestRadio tx(1, {0, 0}, 1), rx(2, {5, 0}, 6);
  medium.attach(&tx);
  medium.attach(&rx);
  medium.transmit(tx, 8'000, 2e6, 15.0, nullptr);
  w.sim().run();
  EXPECT_TRUE(rx.deliveries.empty());
}

TEST(RadioMedium, CollisionDestroysBothFrames) {
  sim::World w(1);
  RadioMedium medium(w, flat_model());
  TestRadio a(1, {0, 0}), b(2, {0, 5}), rx(3, {0, 2.5});
  medium.attach(&a);
  medium.attach(&b);
  medium.attach(&rx);
  // Same instant, same channel, similar power: neither clears SINR.
  medium.transmit(a, 8'000, 2e6, 15.0, nullptr);
  medium.transmit(b, 8'000, 2e6, 15.0, nullptr);
  w.sim().run();
  ASSERT_EQ(rx.deliveries.size(), 2u);
  EXPECT_FALSE(rx.deliveries[0].decodable);
  EXPECT_FALSE(rx.deliveries[1].decodable);
  EXPECT_GE(medium.stats().losses_sinr, 2u);
}

TEST(RadioMedium, CaptureEffectStrongFrameSurvives) {
  sim::World w(1);
  RadioMedium medium(w, flat_model());
  TestRadio near(1, {0, 1}, 6), far(2, {60, 0}, 6), rx(3, {0, 0}, 6);
  medium.attach(&near);
  medium.attach(&far);
  medium.attach(&rx);
  medium.transmit(near, 8'000, 2e6, 15.0, nullptr);
  medium.transmit(far, 8'000, 2e6, 15.0, nullptr);
  w.sim().run();
  bool near_decoded = false;
  for (const auto& d : rx.deliveries) {
    if (d.sender_radio == 1) near_decoded = d.decodable;
  }
  EXPECT_TRUE(near_decoded);  // 35x closer: interference is negligible
}

TEST(RadioMedium, HalfDuplexReceiverMissesWhileTransmitting) {
  sim::World w(1);
  RadioMedium medium(w, flat_model());
  TestRadio a(1, {0, 0}), b(2, {5, 0});
  medium.attach(&a);
  medium.attach(&b);
  medium.transmit(a, 8'000, 2e6, 15.0, nullptr);
  medium.transmit(b, 8'000, 2e6, 15.0, nullptr);  // b is busy sending
  w.sim().run();
  for (const auto& d : b.deliveries) EXPECT_FALSE(d.decodable);
  EXPECT_GE(medium.stats().losses_half_duplex, 1u);
}

TEST(RadioMedium, CarrierBusyDuringTransmission) {
  sim::World w(1);
  RadioMedium medium(w, flat_model());
  TestRadio tx(1, {0, 0}), sensor(2, {5, 0});
  medium.attach(&tx);
  medium.attach(&sensor);
  EXPECT_FALSE(medium.carrier_busy(sensor));
  medium.transmit(tx, 2'000'000, 2e6, 15.0, nullptr);  // 1 s on air
  w.sim().run_until(sim::Time::ms(500));
  EXPECT_TRUE(medium.carrier_busy(sensor));
  w.sim().run();
  w.sim().run_until(sim::Time::sec(2));
  EXPECT_FALSE(medium.carrier_busy(sensor));
}

TEST(RadioMedium, DetachStopsDelivery) {
  sim::World w(1);
  RadioMedium medium(w, flat_model());
  TestRadio tx(1, {0, 0}), rx(2, {5, 0});
  medium.attach(&tx);
  medium.attach(&rx);
  medium.detach(&rx);
  medium.transmit(tx, 8'000, 2e6, 15.0, nullptr);
  w.sim().run();
  EXPECT_TRUE(rx.deliveries.empty());
}

// A TestRadio that detaches another radio from inside its on_frame, while
// the medium is still fanning the frame out.
class DetachingTestRadio : public TestRadio {
 public:
  DetachingTestRadio(RadioMedium& m, std::uint64_t id, Vec2 pos)
      : TestRadio(id, pos), medium_(m) {}
  void on_frame(const FrameDelivery& d) override {
    TestRadio::on_frame(d);
    if (victim != nullptr) medium_.detach(std::exchange(victim, nullptr));
  }
  RadioEndpoint* victim = nullptr;

 private:
  RadioMedium& medium_;
};

// Receivers [det, a, b] in attach order, and det detaches a on the frame:
// a receives nothing more of it, and b receives exactly the delivery it
// gets when nobody detaches, on both fan-out paths.
TEST(RadioMedium, DetachDuringFanOutSkipsOnlyTheDetachedRadio) {
  for (const bool batch : {true, false}) {
    SCOPED_TRACE(batch ? "production" : "oracle");
    const auto run = [&](bool detach) {
      sim::World w(1);
      RadioMedium::Options opt;
      opt.batch = batch;
      RadioMedium medium(w, flat_model(), opt);
      TestRadio tx(1, {0, 0}), a(3, {6, 0}), b(4, {0, 7});
      DetachingTestRadio det(medium, 2, {5, 0});
      for (RadioEndpoint* r : {static_cast<RadioEndpoint*>(&tx),
                               static_cast<RadioEndpoint*>(&det),
                               static_cast<RadioEndpoint*>(&a),
                               static_cast<RadioEndpoint*>(&b)}) {
        medium.attach(r);
      }
      if (detach) det.victim = &a;
      medium.transmit(tx, 8'000, 2e6, 15.0, nullptr);
      w.sim().run();
      EXPECT_EQ(det.deliveries.size(), 1u);
      EXPECT_EQ(medium.attached_count(), detach ? 3u : 4u);
      return std::make_pair(a.deliveries, b.deliveries);
    };
    const auto [a_alone, b_alone] = run(false);
    const auto [a_cut, b_cut] = run(true);
    EXPECT_EQ(a_alone.size(), 1u);
    EXPECT_TRUE(a_cut.empty());
    EXPECT_EQ(b_cut.size(), 1u);
    if (b_alone.size() != 1 || b_cut.empty()) continue;
    EXPECT_EQ(b_cut[0].tx_id, b_alone[0].tx_id);
    EXPECT_EQ(b_cut[0].rssi_dbm, b_alone[0].rssi_dbm);
    EXPECT_EQ(b_cut[0].sinr_db, b_alone[0].sinr_db);
    EXPECT_EQ(b_cut[0].decodable, b_alone[0].decodable);
  }
}

// The production path's range cull is a pure acceleration: with the same
// seed and traffic, MediumStats, every per-receiver delivery (RSSI and SINR
// to the last bit), and every CCA answer must equal the exhaustive oracle.
// Shadowing stays enabled so the conservative cull bound is what's actually
// under test: a cull radius that is too small fails here.
TEST(RadioMedium, RangeCullMatchesExhaustiveScanBitForBit) {
  PathLossModel::Params mp;
  mp.seed = 99;  // shadowing on (default sigma)

  const auto run = [&](bool batch) {
    sim::World w(7);
    RadioMedium::Options opt;
    opt.batch = batch;
    RadioMedium medium(w, PathLossModel(mp), opt);

    sim::Rng rng(1234);
    std::vector<std::unique_ptr<TestRadio>> radios;
    static constexpr int kChans[3] = {1, 6, 11};
    for (int i = 0; i < 30; ++i) {
      radios.push_back(std::make_unique<TestRadio>(
          static_cast<std::uint64_t>(i) + 1,
          Vec2{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
          kChans[i % 3]));
      medium.attach(radios.back().get());
    }

    // Staggered, partially overlapping transmissions plus CCA probes.
    std::vector<std::uint64_t> cca_trace;
    for (int k = 0; k < 60; ++k) {
      const auto who =
          static_cast<std::size_t>(rng.uniform_int(0, 29));
      w.sim().schedule_at(sim::Time::us(700 * k),
                          [&medium, &radios, who] {
                            medium.transmit(*radios[who], 8'000, 2e6, 5.0,
                                            nullptr);
                          });
      const auto probe =
          static_cast<std::size_t>(rng.uniform_int(0, 29));
      w.sim().schedule_at(sim::Time::us(700 * k + 350),
                          [&medium, &radios, probe, &cca_trace] {
                            const TestRadio& r = *radios[probe];
                            const double e = medium.energy_at(
                                r.position(), r.cfg_.channel, r.cfg_.id);
                            cca_trace.push_back(std::bit_cast<std::uint64_t>(e));
                            cca_trace.push_back(
                                medium.carrier_busy(r) ? 1u : 0u);
                          });
    }
    w.sim().run();

    std::vector<std::uint64_t> summary;
    push_stats(summary, medium.stats());
    for (const auto& r : radios) {
      summary.push_back(r->deliveries.size());
      for (const FrameDelivery& d : r->deliveries) {
        summary.push_back(d.tx_id);
        summary.push_back(d.sender_radio);
        summary.push_back(std::bit_cast<std::uint64_t>(d.rssi_dbm));
        summary.push_back(std::bit_cast<std::uint64_t>(d.sinr_db));
        summary.push_back(d.decodable ? 1u : 0u);
      }
    }
    summary.insert(summary.end(), cca_trace.begin(), cca_trace.end());
    return summary;
  };

  const auto production = run(true);
  const auto oracle = run(false);
  EXPECT_EQ(production, oracle);
  EXPECT_GT(production[0], 0u);  // traffic actually flowed
  EXPECT_GT(production[1], 0u);  // and someone heard it
}

// Runs the same randomized traffic-plus-CCA scenario under `opt` and
// returns a bit-exact trace: MediumStats, every delivery (RSSI/SINR to the
// last bit), every CCA probe answer (energy, busy, idle edge), and the
// behaviour digest. Shared by the batch-equivalence
// tests below. Probes come in bursts against the same observer so the
// batch path's per-observer CCA energy cache actually gets hit.
std::vector<std::uint64_t> run_traffic_scenario(RadioMedium::Options opt) {
  PathLossModel::Params mp;
  mp.seed = 99;  // shadowing on (default sigma)
  sim::World w(7);
  RadioMedium medium(w, PathLossModel(mp), opt);

  sim::Rng rng(4321);
  std::vector<std::unique_ptr<TestRadio>> radios;
  static constexpr int kChans[3] = {1, 6, 11};
  for (int i = 0; i < 24; ++i) {
    radios.push_back(std::make_unique<TestRadio>(
        static_cast<std::uint64_t>(i) + 1,
        Vec2{rng.uniform(0.0, 150.0), rng.uniform(0.0, 150.0)},
        kChans[i % 3]));
    medium.attach(radios.back().get());
  }

  std::vector<std::uint64_t> cca_trace;
  const auto probe = [&medium, &cca_trace](const TestRadio& r) {
    const double e =
        medium.energy_at(r.position(), r.cfg_.channel, r.cfg_.id);
    cca_trace.push_back(std::bit_cast<std::uint64_t>(e));
    cca_trace.push_back(medium.carrier_busy(r) ? 1u : 0u);
    cca_trace.push_back(
        static_cast<std::uint64_t>(medium.carrier_idle_at(r).count()));
  };
  for (int k = 0; k < 50; ++k) {
    const auto who = static_cast<std::size_t>(rng.uniform_int(0, 23));
    w.sim().schedule_at(sim::Time::us(900 * k), [&medium, &radios, who] {
      medium.transmit(*radios[who], 8'000, 2e6, 5.0, nullptr);
    });
    const auto obs = static_cast<std::size_t>(rng.uniform_int(0, 23));
    // Burst: repeated queries from one observer between channel events —
    // exactly the CSMA backoff-slot pattern the CCA cache serves.
    for (int j = 0; j < 4; ++j) {
      w.sim().schedule_at(sim::Time::us(900 * k + 300 + 50 * j),
                          [&radios, obs, &probe] { probe(*radios[obs]); });
    }
  }
  w.sim().run();

  std::vector<std::uint64_t> summary;
  push_stats(summary, medium.stats());
  for (const auto& r : radios) {
    summary.push_back(r->deliveries.size());
    for (const FrameDelivery& d : r->deliveries) {
      summary.push_back(d.tx_id);
      summary.push_back(d.sender_radio);
      summary.push_back(std::bit_cast<std::uint64_t>(d.rssi_dbm));
      summary.push_back(std::bit_cast<std::uint64_t>(d.sinr_db));
      summary.push_back(d.decodable ? 1u : 0u);
    }
  }
  summary.insert(summary.end(), cca_trace.begin(), cca_trace.end());
  summary.push_back(medium.behaviour_digest());
  return summary;
}

// A TestRadio that moves at `vel` until `stop`, then stays put.
class MovingTestRadio : public TestRadio {
 public:
  MovingTestRadio(const sim::World& w, std::uint64_t id, Vec2 pos, int channel,
                  Vec2 vel, sim::Time stop)
      : TestRadio(id, pos, channel), world_(w), vel_(vel), stop_(stop) {}
  Vec2 position() const override {
    const double t = std::min(world_.now(), stop_).seconds();
    return {pos_.x + vel_.x * t, pos_.y + vel_.y * t};
  }
  double max_speed_mps() const override { return vel_.norm(); }

 private:
  const sim::World& world_;
  Vec2 vel_;
  sim::Time stop_;
};

// A TestRadio that answers every frame it decodes of `bits` with a short
// frame of its own, sent from inside on_frame: it starts at the decoded
// frame's end, while the medium is still fanning that frame out.
class EchoTestRadio : public TestRadio {
 public:
  EchoTestRadio(RadioMedium& m, std::uint64_t id, Vec2 pos, int channel,
                std::size_t bits)
      : TestRadio(id, pos, channel), medium_(m), bits_(bits) {}
  void on_frame(const FrameDelivery& d) override {
    TestRadio::on_frame(d);
    if (d.decodable && d.bits == bits_) {
      medium_.transmit(*this, 1'000, 2e6, 8.0, nullptr);
    }
  }

 private:
  RadioMedium& medium_;
  std::size_t bits_;
};

// What run_traffic_scenario's 1/6/11 layout and light load never reach, for
// the batched fan-out's per-frame interferer list and SINR memo:
//  - channels 1..9, so interferers 1-4 channels away add partial power;
//  - a dense phase (a 4 ms frame every 100 us from six of the stations):
//    each sender sends while others' frames are in the air (half duplex),
//    the other six only listen, and the history holds ~120 frames;
//  - zero-length frames, which count for half duplex but add no energy;
//  - a sparse phase of isolated frames that hear no interference at all,
//    each followed back to back by another station's frame that starts at
//    its end, and a radio that answers from inside on_frame: neither
//    overlaps the frame it follows, for interference or half duplex;
//  - one radio that moves through the first dense phase, then stops;
//  - a receiver with a non-default noise bandwidth and figure, changed in
//    the sparse phase through invalidate_positions() while nothing moves,
//    so only the noise fields can tell the stale sweep from the new one.
// Returns MediumStats, every delivery (frame start, RSSI/SINR to the last
// bit) and the behaviour digest.
std::vector<std::uint64_t> run_fanout_edge_scenario(RadioMedium::Options opt) {
  PathLossModel::Params mp;
  mp.seed = 5;  // shadowing on (default sigma)
  sim::World w(11);
  RadioMedium medium(w, PathLossModel(mp), opt);

  sim::Rng rng(2718);
  std::vector<std::unique_ptr<TestRadio>> radios;
  for (int i = 0; i < 12; ++i) {
    const Vec2 pos{rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)};
    const auto id = static_cast<std::uint64_t>(i) + 1;
    const int channel = 1 + i % 9;
    if (i == 6) {
      radios.push_back(
          std::make_unique<EchoTestRadio>(medium, id, pos, channel, 8'000));
    } else if (i == 7) {
      radios.push_back(std::make_unique<MovingTestRadio>(
          w, id, pos, channel, Vec2{900.0, -600.0}, sim::Time::ms(30)));
    } else {
      radios.push_back(std::make_unique<TestRadio>(id, pos, channel));
    }
    medium.attach(radios.back().get());
  }
  TestRadio& tuned = *radios[9];
  tuned.cfg_.bandwidth_hz = 20e6;
  tuned.cfg_.noise_figure_db = 9.5;

  const auto send_at = [&](sim::Time t, std::size_t who, std::size_t bits) {
    w.sim().schedule_at(t, [&medium, &radios, who, bits] {
      medium.transmit(*radios[who], bits, 2e6, 8.0, nullptr);
    });
  };
  const auto dense = [&](sim::Time from, int frames) {
    for (int k = 0; k < frames; ++k) {
      const auto who = static_cast<std::size_t>(rng.uniform_int(0, 5));
      const std::size_t bits = k % 23 == 0 ? 0 : 8'000;
      send_at(from + sim::Time::us(100 * k), who, bits);
    }
  };
  dense(sim::Time::zero(), 300);
  for (int k = 0; k < 24; ++k) {  // 10 ms apart: no overlaps at all
    send_at(sim::Time::ms(60 + 10 * k), static_cast<std::size_t>(k % 12),
            8'000);
    send_at(sim::Time::ms(64 + 10 * k), static_cast<std::size_t>((k + 3) % 12),
            4'000);
  }
  w.sim().schedule_at(sim::Time::ms(185), [&] {
    tuned.cfg_.bandwidth_hz = 11e6;
    tuned.cfg_.noise_figure_db = 4.5;
    medium.invalidate_positions();
  });
  dense(sim::Time::ms(320), 300);
  w.sim().run();

  std::vector<std::uint64_t> summary;
  push_stats(summary, medium.stats());
  for (const auto& r : radios) {
    summary.push_back(r->deliveries.size());
    for (const FrameDelivery& d : r->deliveries) {
      summary.push_back(d.tx_id);
      summary.push_back(static_cast<std::uint64_t>(d.start.count()));
      summary.push_back(std::bit_cast<std::uint64_t>(d.rssi_dbm));
      summary.push_back(std::bit_cast<std::uint64_t>(d.sinr_db));
      summary.push_back(d.decodable ? 1u : 0u);
    }
  }
  summary.push_back(medium.behaviour_digest());
  return summary;
}

// A world whose movers close in on a static sender between two of its
// frames. Both movers are out of range at the first frame end and in range
// at the second, so the second fan-out must rebuild the sender's sweep
// from a fresh endpoint snapshot: a sweep or snapshot kept across the
// motion, or a cull radius that is too small, drops them. Far-off fillers
// sit outside every cull.
// Returns MediumStats, every delivery and the behaviour digest.
std::vector<std::uint64_t> run_closing_movers_scenario(
    RadioMedium::Options opt) {
  sim::World w(3);
  RadioMedium medium(w, flat_model(), opt);
  // -20 dBm against -90 dBm sensitivity: a 10 m range, cull radius 10.1 m.
  const sim::Time stop = sim::Time::ms(60);
  std::vector<std::unique_ptr<MovingTestRadio>> radios;
  const auto add = [&](Vec2 pos, Vec2 vel) {
    radios.push_back(std::make_unique<MovingTestRadio>(
        w, radios.size() + 1, pos, 6, vel, stop));
    medium.attach(radios.back().get());
  };
  add({100.0, 104.0}, {0, 0});          // the sender
  add({113.0, 104.0}, {-100.0, 0.0});   // 12.6 m off at 4 ms, 7.6 at 54
  add({112.5, 108.0}, {-90.0, -40.0});  // 12.7 m off at 4 ms, 7.9 at 54
  add({96.0, 104.0}, {0, 0});           // always in range
  for (int i = 0; i < 12; ++i) add({400.0 + 20.0 * i, 400.0}, {0, 0});
  // Frame ends at 4 ms and 54 ms.
  for (const int ms : {0, 50}) {
    w.sim().schedule_at(sim::Time::ms(ms), [&medium, &radios] {
      medium.transmit(*radios[0], 8'000, 2e6, -20.0, nullptr);
    });
  }
  w.sim().run();
  // The movers hear only the second frame, the static neighbour both.
  EXPECT_EQ(radios[1]->deliveries.size(), 1u);
  EXPECT_EQ(radios[2]->deliveries.size(), 1u);
  EXPECT_EQ(radios[3]->deliveries.size(), 2u);

  std::vector<std::uint64_t> summary;
  push_stats(summary, medium.stats());
  for (const auto& r : radios) {
    summary.push_back(r->deliveries.size());
    for (const FrameDelivery& d : r->deliveries) {
      summary.push_back(d.tx_id);
      summary.push_back(std::bit_cast<std::uint64_t>(d.rssi_dbm));
      summary.push_back(std::bit_cast<std::uint64_t>(d.sinr_db));
    }
  }
  summary.push_back(medium.behaviour_digest());
  return summary;
}

// The production path (range cull, dense per-pair memo, per-sender sweep
// cache, per-frame interferer list and SINR memo, CCA energy cache)
// is an acceleration only: same seed and traffic, same bits out as the
// exhaustive oracle.
TEST(RadioMedium, BatchPathMatchesScalarBitForBit) {
  using Scenario = std::vector<std::uint64_t> (*)(RadioMedium::Options);
  const std::pair<const char*, Scenario> scenarios[] = {
      {"traffic scenario", run_traffic_scenario},
      {"fan-out edge scenario", run_fanout_edge_scenario},
      {"closing movers scenario", run_closing_movers_scenario}};
  for (const auto& [name, scenario] : scenarios) {
    SCOPED_TRACE(name);
    const auto trace_for = [scenario](bool batch) {
      RadioMedium::Options opt;
      opt.batch = batch;
      return scenario(opt);
    };
    const auto oracle = trace_for(false);
    EXPECT_EQ(trace_for(true), oracle);
    EXPECT_GT(oracle[0], 0u);  // traffic actually flowed
  }
}

// The edge scenario reaches what it claims: half-duplex losses, deliveries
// with and without interference, and the tuned receiver's noise change.
TEST(RadioMedium, FanoutEdgeScenarioReachesItsCases) {
  const auto t = run_fanout_edge_scenario(RadioMedium::Options());
  EXPECT_GT(t[4], 0u);  // losses_half_duplex
  // A delivery's SINR equals rssi over noise alone exactly when it heard no
  // interference; the noise is the receiver's at that instant.
  std::size_t clear = 0, interfered = 0, tuned_before = 0, tuned_after = 0;
  std::size_t pos = 6;
  for (std::uint64_t id = 1; id <= 12; ++id) {
    const std::uint64_t n = t[pos++];
    for (std::uint64_t k = 0; k < n; ++k, pos += 5) {
      const double rssi = std::bit_cast<double>(t[pos + 2]);
      const double sinr = std::bit_cast<double>(t[pos + 3]);
      const bool late = sim::Time::ns(static_cast<std::int64_t>(t[pos + 1])) >=
                        sim::Time::ms(185);  // sent after the change
      const double noise = id == 10 ? thermal_noise_dbm(late ? 11e6 : 20e6,
                                                       late ? 4.5 : 9.5)
                                   : thermal_noise_dbm(22e6, 7.0);
      if (sinr == sinr_db(rssi, 0.0, noise)) {
        ++clear;
      } else {
        ++interfered;
      }
      if (id == 10) ++(late ? tuned_after : tuned_before);
    }
  }
  EXPECT_GT(clear, 20u);
  EXPECT_GT(interfered, 1000u);
  EXPECT_GT(tuned_before, 0u);
  EXPECT_GT(tuned_after, 0u);
}

// carrier_idle_at is the exact idle edge: with no frame starting after the
// probe, CCA reads busy 1 ns before the edge and idle at it, on both paths.
TEST(RadioMedium, CarrierIdleAtIsTheExactIdleEdge) {
  for (const bool batch : {true, false}) {
    int edges_in_future = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      RadioMedium::Options opt;
      opt.batch = batch;
      PathLossModel::Params mp;
      mp.seed = seed;
      sim::World w(seed);
      RadioMedium medium(w, PathLossModel(mp), opt);
      sim::Rng rng(seed * 31);
      std::vector<std::unique_ptr<TestRadio>> radios;
      for (int i = 0; i < 12; ++i) {
        radios.push_back(std::make_unique<TestRadio>(
            static_cast<std::uint64_t>(i) + 1,
            Vec2{rng.uniform(0.0, 160.0), rng.uniform(0.0, 160.0)},
            static_cast<int>(rng.uniform_int(4, 8))));
        medium.attach(radios.back().get());
      }
      for (int k = 0; k < 6; ++k) {
        const auto who = static_cast<std::size_t>(rng.uniform_int(0, 11));
        const auto bits = static_cast<std::size_t>(rng.uniform_int(500, 9'000));
        w.sim().schedule_at(sim::Time::us(rng.uniform_int(0, 2'000)),
                            [&medium, &radios, who, bits] {
                              medium.transmit(*radios[who], bits, 2e6, 15.0,
                                              nullptr);
                            });
      }
      w.sim().run_until(sim::Time::us(2'001));
      for (const auto& r : radios) {
        const sim::Time edge = medium.carrier_idle_at(*r);
        ASSERT_GE(edge, w.now());
        if (edge > w.now() + sim::Time::ns(1)) {
          ++edges_in_future;
          w.sim().schedule_at(edge - sim::Time::ns(1), [&medium, &r] {
            EXPECT_TRUE(medium.carrier_busy(*r));
          });
        }
        w.sim().schedule_at(edge, [&medium, &r, edge] {
          EXPECT_FALSE(medium.carrier_busy(*r)) << edge.count();
          EXPECT_EQ(medium.carrier_idle_at(*r), edge);
        });
      }
      w.sim().run();
    }
    EXPECT_GT(edges_in_future, 40) << "batch " << batch;
  }
}

// resolve_links answers must be bit-identical to per-call scalar model
// evaluation, for attached pairs (dense memo), unattached ids (the uncached
// model), and repeat queries (memo hits).
TEST(RadioMedium, ResolveLinksMatchesScalarModelBitForBit) {
  PathLossModel::Params mp;
  mp.seed = 42;  // shadowing on
  sim::World w(3);
  RadioMedium medium(w, PathLossModel(mp));

  sim::Rng rng(777);
  std::vector<std::unique_ptr<TestRadio>> radios;
  for (int i = 0; i < 12; ++i) {
    radios.push_back(std::make_unique<TestRadio>(
        static_cast<std::uint64_t>(i) + 1,
        Vec2{rng.uniform(0.0, 80.0), rng.uniform(0.0, 80.0)},
        1 + static_cast<int>(rng.uniform_int(0, 10))));
    medium.attach(radios.back().get());
  }

  std::vector<LinkQuery> queries;
  for (int n = 0; n < 200; ++n) {
    LinkQuery q;
    q.tx_power_dbm = rng.uniform(-5.0, 20.0);
    if (n % 3 != 0) {  // attached pair: dense-memo path
      const auto& a = *radios[static_cast<std::size_t>(rng.uniform_int(0, 11))];
      const auto& b = *radios[static_cast<std::size_t>(rng.uniform_int(0, 11))];
      q.from = a.position();
      q.to = b.position();
      q.from_id = a.cfg_.id;
      q.to_id = b.cfg_.id;
      q.tx_channel = a.cfg_.channel;
      q.rx_channel = b.cfg_.channel;
    } else {  // unattached ids: uncached-model fallback path
      q.from = {rng.uniform(0.0, 80.0), rng.uniform(0.0, 80.0)};
      q.to = {rng.uniform(0.0, 80.0), rng.uniform(0.0, 80.0)};
      q.from_id = 900 + static_cast<std::uint64_t>(n);
      q.to_id = 950 + static_cast<std::uint64_t>(n);
      q.tx_channel = 1 + static_cast<int>(rng.uniform_int(0, 10));
      q.rx_channel = 1 + static_cast<int>(rng.uniform_int(0, 10));
    }
    queries.push_back(q);
  }

  std::vector<LinkResult> results(queries.size());
  medium.resolve_links(queries, results);

  PathLossModel ref(mp);  // fresh shadowing memo; same params -> same values
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const LinkQuery& q = queries[i];
    const LinkResult& r = results[i];
    const double rx_dbm =
        ref.received_dbm(q.tx_power_dbm, q.from, q.to, q.from_id, q.to_id);
    const double overlap = channel_overlap(q.tx_channel, q.rx_channel);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.rx_dbm),
              std::bit_cast<std::uint64_t>(rx_dbm))
        << "query " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.rx_mw),
              std::bit_cast<std::uint64_t>(dbm_to_mw(rx_dbm)))
        << "query " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.overlap),
              std::bit_cast<std::uint64_t>(overlap))
        << "query " << i;
    const double rssi =
        rx_dbm + 10.0 * std::log10(overlap > 0.0 ? overlap : 1e-12);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.rssi_dbm),
              std::bit_cast<std::uint64_t>(rssi))
        << "query " << i;
  }

  // A second pass is answered from the memos and must not drift.
  const auto memo_hits_before = medium.batch_stats().memo_hits;
  std::vector<LinkResult> again(queries.size());
  medium.resolve_links(queries, again);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(again[i].rssi_dbm),
              std::bit_cast<std::uint64_t>(results[i].rssi_dbm));
  }
  EXPECT_GT(medium.batch_stats().memo_hits, memo_hits_before);
  EXPECT_GT(medium.batch_stats().fallback_queries, 0u);
}

// --- Acoustics -----------------------------------------------------------

TEST(Acoustics, AmbientOnly) {
  AcousticField f(35.0);
  EXPECT_NEAR(f.spl_at({0, 0}), 35.0, 1e-9);
}

TEST(Acoustics, SourceAttenuatesWithDistance) {
  AcousticField f(0.0);
  f.add_source({0, {0, 0}, 60.0, true, "talker"});
  const double at1 = f.spl_at({1, 0});
  const double at10 = f.spl_at({10, 0});
  EXPECT_NEAR(at1, 60.0, 0.5);
  EXPECT_NEAR(at1 - at10, 20.0, 0.5);  // -20 dB per decade
}

TEST(Acoustics, SourcesSumEnergetically) {
  AcousticField f(0.0);
  f.add_source({0, {0, 0}, 60.0, true, "a"});
  f.add_source({0, {0, 0}, 60.0, true, "b"});
  // Two equal sources: +3 dB.
  EXPECT_NEAR(f.spl_at({1, 0}), 63.0, 0.5);
}

TEST(Acoustics, IntelligibilityDropsWithNoise) {
  AcousticField f(30.0);
  const auto speaker = f.add_source({0, {0, 0}, 60.0, true, "speaker"});
  const double quiet = f.intelligibility({1, 0}, speaker);
  f.set_ambient_db(70.0);
  const double loud = f.intelligibility({1, 0}, speaker);
  EXPECT_GT(quiet, 0.9);
  EXPECT_LT(loud, quiet);
}

TEST(Acoustics, IntelligibilityDropsWithDistance) {
  AcousticField f(45.0);
  const auto speaker = f.add_source({0, {0, 0}, 60.0, true, "speaker"});
  double prev = 1.1;
  for (double d : {0.5, 2.0, 8.0, 32.0}) {
    const double i = f.intelligibility({d, 0}, speaker);
    EXPECT_LE(i, prev);
    prev = i;
  }
}

TEST(Acoustics, InactiveAndRemovedSourcesSilent) {
  AcousticField f(0.0);
  const auto id = f.add_source({0, {0, 0}, 80.0, true, "hvac"});
  f.set_source_active(id, false);
  EXPECT_NEAR(f.spl_at({1, 0}), 0.0, 1.0);
  f.set_source_active(id, true);
  EXPECT_GT(f.spl_at({1, 0}), 70.0);
  f.remove_source(id);
  EXPECT_NEAR(f.spl_at({1, 0}), 0.0, 1.0);
  EXPECT_EQ(f.source_count(), 0u);
}

TEST(Acoustics, SocialAppropriateness) {
  // Speaking at ambient level in an empty room: fine.
  EXPECT_GT(social_appropriateness(40.0, 40.0, 0.0), 0.95);
  // Shouting over quiet in a packed office: not fine.
  EXPECT_LT(social_appropriateness(75.0, 35.0, 2.0), 0.2);
  // More crowding is monotonically worse.
  EXPECT_GE(social_appropriateness(60.0, 40.0, 0.1),
            social_appropriateness(60.0, 40.0, 1.5));
}

// --- Mobility --------------------------------------------------------------

TEST(Mobility, StaticStaysPut) {
  StaticMobility m({3, 4});
  EXPECT_EQ(m.position_at(sim::Time::zero()), (Vec2{3, 4}));
  EXPECT_EQ(m.position_at(sim::Time::sec(1e4)), (Vec2{3, 4}));
}

TEST(Mobility, LinearMoves) {
  LinearMobility m({0, 0}, {1.0, 2.0});
  const Vec2 p = m.position_at(sim::Time::sec(3));
  EXPECT_DOUBLE_EQ(p.x, 3.0);
  EXPECT_DOUBLE_EQ(p.y, 6.0);
}

TEST(Mobility, WaypointStaysInArenaAndIsDeterministic) {
  RandomWaypointMobility::Params p;
  p.arena = {{0, 0}, {30, 30}};
  RandomWaypointMobility a(p, {15, 15}, 99);
  RandomWaypointMobility b(p, {15, 15}, 99);
  for (int s = 0; s <= 600; s += 7) {
    const Vec2 pa = a.position_at(sim::Time::sec(s));
    EXPECT_TRUE(p.arena.contains(pa)) << "escaped at t=" << s;
    EXPECT_EQ(pa, b.position_at(sim::Time::sec(s)));
  }
}

TEST(Mobility, WaypointActuallyMoves) {
  RandomWaypointMobility::Params p;
  RandomWaypointMobility m(p, {25, 25}, 7);
  EXPECT_GT(distance(m.position_at(sim::Time::zero()),
                     m.position_at(sim::Time::sec(120))),
            1.0);
}

TEST(Mobility, WaypointQueriesAreOrderIndependent) {
  RandomWaypointMobility::Params p;
  RandomWaypointMobility a(p, {25, 25}, 3), b(p, {25, 25}, 3);
  const Vec2 a50 = a.position_at(sim::Time::sec(50));
  (void)b.position_at(sim::Time::sec(200));  // extend b further first
  EXPECT_EQ(a50, b.position_at(sim::Time::sec(50)));
}

TEST(Mobility, RandomWalkStaysInArena) {
  RandomWalkMobility::Params p;
  p.arena = {{0, 0}, {20, 20}};
  p.speed_mps = 3.0;
  RandomWalkMobility m(p, {10, 10}, 5);
  for (int s = 0; s <= 300; ++s) {
    EXPECT_TRUE(p.arena.contains(m.position_at(sim::Time::sec(s))));
  }
}

// --- Environment -------------------------------------------------------

TEST(Environment, ComposesSubsystems) {
  sim::World w(1);
  Environment::Params p;
  p.ambient_noise_db = 40.0;
  p.conditions.temperature_c = 25.0;
  Environment e(w, p);
  EXPECT_DOUBLE_EQ(e.acoustics().ambient_db(), 40.0);
  EXPECT_DOUBLE_EQ(e.conditions().temperature_c, 25.0);
  EXPECT_EQ(e.medium().attached_count(), 0u);
  e.conditions().temperature_c = 30.0;
  EXPECT_DOUBLE_EQ(e.conditions().temperature_c, 30.0);
}

}  // namespace
}  // namespace aroma::env

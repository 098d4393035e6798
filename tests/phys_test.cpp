// Tests for the physical layer: profiles, batteries, transceivers, the
// CSMA/CA MAC (incl. edge-driven deferral against its polling oracle), the
// physical user, and the Device container.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "env/environment.hpp"
#include "phys/battery.hpp"
#include "phys/device.hpp"
#include "phys/mac.hpp"
#include "phys/physical_user.hpp"
#include "phys/profile.hpp"
#include "phys/transceiver.hpp"
#include "sim/world.hpp"

namespace aroma::phys {
namespace {

env::PathLossModel flat_model() {
  env::PathLossModel::Params p;
  p.shadowing_sigma_db = 0.0;
  return env::PathLossModel(p);
}

struct Link {
  Link(sim::World& w, env::RadioMedium& medium, std::uint64_t id, env::Vec2 pos)
      : mobility(pos),
        radio(w, medium, &mobility,
              [&] {
                Transceiver::Params tp;
                tp.config.id = id;
                tp.config.channel = 6;
                return tp;
              }()),
        mac(w, radio, sim::Rng(id * 101)) {}

  env::StaticMobility mobility;
  Transceiver radio;
  CsmaMac mac;
};

// --- Profiles ----------------------------------------------------------

TEST(Profiles, PresetsAreSane) {
  const auto adapter = profiles::aroma_adapter();
  EXPECT_TRUE(adapter.net.has_radio);
  EXPECT_FALSE(adapter.ui.has_display);
  EXPECT_EQ(adapter.name, "aroma-adapter");

  const auto laptop = profiles::laptop();
  EXPECT_TRUE(laptop.ui.has_keyboard);
  EXPECT_TRUE(laptop.net.has_radio);

  const auto projector = profiles::digital_projector();
  EXPECT_TRUE(projector.ui.has_display);
  EXPECT_FALSE(projector.net.has_radio);
  EXPECT_GT(projector.idle_power_w, 100.0);

  const auto soc = profiles::future_soc();
  EXPECT_TRUE(soc.net.has_radio);
  EXPECT_LT(soc.mass_kg, 0.1);
  EXPECT_LT(soc.net.tx_power_dbm, adapter.net.tx_power_dbm);

  EXPECT_TRUE(profiles::desktop_pc().net.has_wired);
  EXPECT_FALSE(profiles::pda().net.has_radio);
}

// --- Battery ---------------------------------------------------------------

TEST(Battery, IdleDrainOverTime) {
  sim::World w(1);
  Battery::Params p;
  p.capacity_j = 100.0;
  p.idle_power_w = 1.0;
  Battery b(w, p);
  EXPECT_DOUBLE_EQ(b.level_j(), 100.0);
  w.sim().run_until(sim::Time::sec(30));
  EXPECT_NEAR(b.level_j(), 70.0, 1e-9);
  EXPECT_NEAR(b.fraction(), 0.7, 1e-9);
}

TEST(Battery, ExplicitDrainAndDepletionCallback) {
  sim::World w(1);
  Battery::Params p;
  p.capacity_j = 10.0;
  p.idle_power_w = 0.0;
  Battery b(w, p);
  bool dead = false;
  b.set_depleted_callback([&] { dead = true; });
  b.drain(4.0);
  EXPECT_FALSE(dead);
  EXPECT_FALSE(b.depleted());
  b.drain(7.0);
  EXPECT_TRUE(dead);
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.level_j(), 0.0);
  // Callback fires exactly once.
  dead = false;
  b.drain(1.0);
  EXPECT_FALSE(dead);
}

TEST(Battery, TxRxDrainRates) {
  sim::World w(1);
  Battery::Params p;
  p.capacity_j = 100.0;
  p.idle_power_w = 0.0;
  p.tx_power_w = 2.0;
  p.rx_power_w = 1.0;
  Battery b(w, p);
  b.drain_tx(10.0);
  EXPECT_NEAR(b.level_j(), 80.0, 1e-9);
  b.drain_rx(10.0);
  EXPECT_NEAR(b.level_j(), 70.0, 1e-9);
}

TEST(Battery, LifetimeEstimate) {
  Battery::Params p;
  p.capacity_j = 3600.0;
  p.idle_power_w = 0.5;
  p.tx_power_w = 1.0;
  p.rx_power_w = 0.5;
  // idle only: 7200 s. With 50% tx duty: 1 W avg -> 3600 s.
  EXPECT_NEAR(estimate_lifetime_s(p, 0.0, 0.0), 7200.0, 1e-9);
  EXPECT_NEAR(estimate_lifetime_s(p, 0.5, 0.0), 3600.0, 1e-9);
  EXPECT_GT(estimate_lifetime_s(p, 0.1, 0.1),
            estimate_lifetime_s(p, 0.5, 0.5));
}

// --- Transceiver -------------------------------------------------------

TEST(Transceiver, HalfDuplexWindow) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  env::StaticMobility pos({0, 0});
  Transceiver::Params tp;
  tp.config.id = 1;
  tp.bitrate_bps = 1e6;
  Transceiver t(w, medium, &pos, tp);
  EXPECT_TRUE(t.receiver_enabled());
  const auto air = t.transmit(1'000'000, nullptr);  // 1 s of airtime
  EXPECT_EQ(air, sim::Time::sec(1));
  EXPECT_TRUE(t.transmitting());
  EXPECT_FALSE(t.receiver_enabled());
  w.sim().run_until(sim::Time::sec(2));
  EXPECT_FALSE(t.transmitting());
  EXPECT_TRUE(t.receiver_enabled());
  EXPECT_EQ(t.frames_sent(), 1u);
}

TEST(Transceiver, PoweredOffDoesNotSendOrReceive) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  env::StaticMobility pa({0, 0}), pb({3, 0});
  Transceiver::Params ta, tb;
  ta.config.id = 1;
  tb.config.id = 2;
  Transceiver a(w, medium, &pa, ta), b(w, medium, &pb, tb);
  int received = 0;
  b.set_receive_handler([&](const env::FrameDelivery& d) {
    received += d.decodable ? 1 : 0;
  });
  b.set_powered(false);
  a.transmit(8'000, nullptr);
  w.sim().run();
  EXPECT_EQ(received, 0);
  b.set_powered(true);
  a.transmit(8'000, nullptr);
  w.sim().run();
  EXPECT_EQ(received, 1);
}

// --- CSMA MAC ----------------------------------------------------------

TEST(CsmaMac, UnicastDeliveryWithAck) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  Link b(w, medium, 2, {5, 0});
  auto payload = std::make_shared<int>(42);
  int delivered_payload = 0;
  bool send_ok = false;
  b.mac.set_receive_handler([&](MacAddress src, const MacPayload& p,
                                std::size_t bits) {
    EXPECT_EQ(src, 1u);
    EXPECT_EQ(bits, 800u);
    delivered_payload = *static_cast<const int*>(p.get());
  });
  a.mac.send(2, 800, payload, [&](bool ok) { send_ok = ok; });
  w.sim().run();
  EXPECT_EQ(delivered_payload, 42);
  EXPECT_TRUE(send_ok);
  EXPECT_EQ(b.mac.stats().delivered_up, 1u);
  EXPECT_EQ(b.mac.stats().sent_acks, 1u);
  EXPECT_EQ(a.mac.stats().acks_received, 1u);
}

TEST(CsmaMac, BroadcastReachesAllWithoutAcks) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  Link b(w, medium, 2, {5, 0});
  Link c(w, medium, 3, {0, 5});
  int deliveries = 0;
  const auto count = [&](MacAddress, const MacPayload&, std::size_t) {
    ++deliveries;
  };
  b.mac.set_receive_handler(count);
  c.mac.set_receive_handler(count);
  bool cb_ok = false;
  a.mac.send(kBroadcast, 400, nullptr, [&](bool ok) { cb_ok = ok; });
  w.sim().run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_TRUE(cb_ok);
  EXPECT_EQ(b.mac.stats().sent_acks, 0u);
  EXPECT_EQ(c.mac.stats().sent_acks, 0u);
}

TEST(CsmaMac, ManyFramesAllDelivered) {
  sim::World w(7);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  Link b(w, medium, 2, {5, 0});
  int delivered = 0;
  b.mac.set_receive_handler(
      [&](MacAddress, const MacPayload&, std::size_t) { ++delivered; });
  for (int i = 0; i < 40; ++i) a.mac.send(2, 1'000, nullptr);
  w.sim().run();
  EXPECT_EQ(delivered, 40);
  EXPECT_EQ(b.mac.stats().duplicates_dropped, 0u);
}

TEST(CsmaMac, ContendersBothGetThrough) {
  sim::World w(3);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  Link b(w, medium, 2, {3, 0});
  Link c(w, medium, 3, {0, 3});
  int from_a = 0, from_b = 0;
  c.mac.set_receive_handler(
      [&](MacAddress src, const MacPayload&, std::size_t) {
        (src == 1 ? from_a : from_b)++;
      });
  for (int i = 0; i < 25; ++i) {
    a.mac.send(3, 2'000, nullptr);
    b.mac.send(3, 2'000, nullptr);
  }
  w.sim().run();
  // Retransmission + backoff should pull (nearly) everything through.
  EXPECT_GE(from_a, 23);
  EXPECT_GE(from_b, 23);
}

TEST(CsmaMac, UnreachableDestinationFailsAfterRetries) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  bool result = true;
  a.mac.send(99, 800, nullptr, [&](bool ok) { result = ok; });
  w.sim().run();
  EXPECT_FALSE(result);
  EXPECT_EQ(a.mac.stats().drops_retry_limit, 1u);
  EXPECT_EQ(a.mac.stats().retries,
            static_cast<std::uint64_t>(a.mac.params().retry_limit) + 1);
}

TEST(CsmaMac, QueueOverflowRejects) {
  sim::World w(1);
  env::RadioMedium medium(w, flat_model());
  Link a(w, medium, 1, {0, 0});
  int failures = 0;
  // Fill beyond queue_limit while the MAC is stuck contending.
  for (std::size_t i = 0; i < a.mac.params().queue_limit + 10; ++i) {
    a.mac.send(99, 800, nullptr, [&](bool ok) { failures += ok ? 0 : 1; });
  }
  EXPECT_GE(a.mac.stats().drops_queue_full, 9u);
  w.sim().run();
  EXPECT_GE(failures, static_cast<int>(a.mac.params().queue_limit));
}

// --- Edge-driven deferral vs the polling oracle ---------------------------
//
// A deferring CsmaMac schedules one carrier re-check at the first slot of
// its grid at or after the idle edge (RadioMedium::carrier_idle_at). The
// oracle (Params::poll_deferral) re-checks every slot. Both must put the
// same frames on the air at the same instants with the same outcomes.

// A passive endpoint on one channel: records every frame it hears to the
// last SINR bit. It never transmits, so it sees the same air in both runs.
class Sniffer final : public env::RadioEndpoint {
 public:
  Sniffer(sim::World& w, std::uint64_t id, int channel,
          std::vector<std::uint64_t>& trace)
      : w_(w), trace_(trace) {
    cfg_.id = id;
    cfg_.channel = channel;
    cfg_.sensitivity_dbm = -120.0;
  }
  env::Vec2 position() const override { return {60.0, 60.0}; }
  const env::RadioConfig& radio_config() const override { return cfg_; }
  bool receiver_enabled() const override { return true; }
  double max_speed_mps() const override { return 0.0; }
  void on_frame(const env::FrameDelivery& d) override {
    trace_.insert(trace_.end(),
                  {static_cast<std::uint64_t>(w_.now().count()), cfg_.id,
                   d.tx_id, d.sender_radio, d.bits,
                   std::bit_cast<std::uint64_t>(d.rssi_dbm),
                   std::bit_cast<std::uint64_t>(d.sinr_db)});
  }

 private:
  sim::World& w_;
  env::RadioConfig cfg_;
  std::vector<std::uint64_t>& trace_;
};

struct WorldSpec {
  std::uint64_t seed;
  int radios;
  int channel_mode;  // 0: all on 6; 1: spread over 1/6/11; 2: 4..8
  int payload_mode;  // 0: 256-bit frames; 1: 64..12000 bits
};

struct WorldRun {
  std::vector<std::uint64_t> trace;
  std::uint64_t events = 0;
};

int draw_channel(int mode, sim::Rng& rng) {
  if (mode == 0) return 6;
  if (mode == 1) return static_cast<int>(1 + 5 * rng.uniform_int(0, 2));
  return static_cast<int>(rng.uniform_int(4, 8));
}

// Generates a world from `spec`: static radios over a 120 m square (some
// pairs hear each other, some only sense, some neither), six frames per
// radio at random instants to random peers or broadcast, and by seed % 4
// one input the idle-edge argument does not cover: mid-run channel hops,
// power toggles, or a moving radio. Returns everything observable.
WorldRun run_world(const WorldSpec& spec, bool poll) {
  sim::World w(spec.seed);
  env::PathLossModel::Params pp;
  pp.seed = spec.seed;  // shadowing on
  env::RadioMedium medium(w, env::PathLossModel(pp));
  sim::Rng rng(spec.seed * 7919 +
               static_cast<std::uint64_t>(spec.radios * 31 +
                                          spec.channel_mode * 3 +
                                          spec.payload_mode));
  WorldRun out;
  std::vector<std::unique_ptr<Sniffer>> sniffers;
  for (const int ch : {1, 6, 11}) {
    sniffers.push_back(std::make_unique<Sniffer>(
        w, 1000 + static_cast<std::uint64_t>(ch), ch, out.trace));
    medium.attach(sniffers.back().get());
  }
  struct Node {
    std::unique_ptr<env::MobilityModel> mobility;
    std::unique_ptr<Transceiver> radio;
    std::unique_ptr<CsmaMac> mac;
  };
  const int extra = static_cast<int>(spec.seed % 4);
  std::vector<Node> nodes(static_cast<std::size_t>(spec.radios));
  for (int i = 0; i < spec.radios; ++i) {
    Node& n = nodes[static_cast<std::size_t>(i)];
    const env::Vec2 pos{rng.uniform(0.0, 120.0), rng.uniform(0.0, 120.0)};
    if (extra == 3 && i == 0) {
      n.mobility =
          std::make_unique<env::LinearMobility>(pos, env::Vec2{400.0, -300.0});
    } else {
      n.mobility = std::make_unique<env::StaticMobility>(pos);
    }
    Transceiver::Params tp;
    tp.config.id = static_cast<std::uint64_t>(i) + 1;
    tp.config.channel = draw_channel(spec.channel_mode, rng);
    n.radio = std::make_unique<Transceiver>(w, medium, n.mobility.get(), tp);
    CsmaMac::Params mp;
    mp.poll_deferral = poll;
    n.mac = std::make_unique<CsmaMac>(
        w, *n.radio,
        sim::Rng(spec.seed * 1000 + static_cast<std::uint64_t>(i)), mp);
    n.mac->set_receive_handler([&out, &w, i](MacAddress src,
                                             const MacPayload&,
                                             std::size_t bits) {
      out.trace.insert(out.trace.end(),
                       {static_cast<std::uint64_t>(w.now().count()),
                        static_cast<std::uint64_t>(i), src, bits});
    });
  }
  for (int i = 0; i < spec.radios; ++i) {
    for (int k = 0; k < 6; ++k) {
      const sim::Time at = sim::Time::us(rng.uniform_int(0, 60'000));
      const auto pick = rng.uniform_int(0, spec.radios);
      const MacAddress dst = pick == spec.radios || pick == i
                                 ? kBroadcast
                                 : static_cast<MacAddress>(pick) + 1;
      const std::size_t bits =
          spec.payload_mode == 0
              ? 256
              : static_cast<std::size_t>(rng.uniform_int(64, 12'000));
      w.sim().schedule_at(at, [&out, &w, &nodes, i, dst, bits] {
        nodes[static_cast<std::size_t>(i)].mac->send(
            dst, bits, nullptr, [&out, &w, i](bool ok) {
              out.trace.insert(out.trace.end(),
                               {static_cast<std::uint64_t>(w.now().count()),
                                100 + static_cast<std::uint64_t>(i),
                                ok ? 1u : 0u});
            });
      });
    }
  }
  for (int k = 0; k < 3 && (extra == 1 || extra == 2); ++k) {
    Transceiver& radio =
        *nodes[static_cast<std::size_t>(rng.uniform_int(0, spec.radios - 1))]
             .radio;
    const sim::Time at = sim::Time::us(rng.uniform_int(0, 60'000));
    if (extra == 1) {
      const int ch = draw_channel(2, rng);
      w.sim().schedule_at(at, [&radio, ch] { radio.set_channel(ch); });
    } else {
      const sim::Time off = sim::Time::us(rng.uniform_int(1, 5'000));
      w.sim().schedule_at(at, [&radio] { radio.set_powered(false); });
      w.sim().schedule_at(at + off, [&radio] { radio.set_powered(true); });
    }
  }
  w.sim().run();

  const env::MediumStats& ms = medium.stats();
  out.trace.insert(out.trace.end(),
                   {medium.behaviour_digest(), ms.transmissions,
                    ms.deliveries_attempted, ms.deliveries_decodable,
                    ms.losses_sinr, ms.losses_half_duplex, ms.losses_rx_off});
  for (const Node& n : nodes) {
    const MacStats& st = n.mac->stats();
    out.trace.insert(out.trace.end(),
                     {st.sent_data, st.sent_acks, st.delivered_up, st.retries,
                      st.drops_retry_limit, st.acks_received});
  }
  out.events = w.sim().executed();
  return out;
}

class DeferralOracle : public ::testing::TestWithParam<int> {};

// 10 seeds x 3 channel plans x 2 payload plans per radio count; the suite
// covers 240 worlds over radio counts 2, 5, 10 and 20.
TEST_P(DeferralOracle, EdgeDrivenMatchesPollingTraceAndOutcomes) {
  const int radios = GetParam();
  std::uint64_t poll_events = 0;
  std::uint64_t edge_events = 0;
  int worlds = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (int channels = 0; channels < 3; ++channels) {
      for (int payload = 0; payload < 2; ++payload) {
        const WorldSpec spec{seed, radios, channels, payload};
        const WorldRun oracle = run_world(spec, /*poll=*/true);
        const WorldRun edge = run_world(spec, /*poll=*/false);
        ASSERT_EQ(edge.trace, oracle.trace)
            << "seed " << seed << " radios " << radios << " channels "
            << channels << " payload " << payload;
        EXPECT_LE(edge.events, oracle.events);
        poll_events += oracle.events;
        edge_events += edge.events;
        ++worlds;
      }
    }
  }
  EXPECT_EQ(worlds, 60);
  EXPECT_LT(edge_events, poll_events);
}

INSTANTIATE_TEST_SUITE_P(Radios, DeferralOracle,
                         ::testing::Values(2, 5, 10, 20));

// Hand-built deferral: A puts a 10 ms frame on channel 6 that B senses, B's
// MAC queues a broadcast 1 ms in (its slot grid: 1 ms + k * 20 us), and
// `during` runs on B's radio at `at`, mid-deferral.
struct DeferralProbe {
  std::int64_t done_ns = -1;  // B's send completion
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

template <typename During>
DeferralProbe run_deferral(bool poll, const env::MobilityModel& b_mobility,
                           During during,
                           sim::Time at = sim::Time::us(2'007)) {
  sim::World w(3);
  env::RadioMedium medium(w, flat_model());
  env::StaticMobility pa({0, 0}), pc({10, 0});
  Transceiver::Params ta, tb, tc;
  ta.config.id = 1;
  ta.config.channel = 6;
  tb.config.id = 2;
  tb.config.channel = 6;
  tc.config.id = 3;
  tc.config.channel = 11;
  Transceiver a(w, medium, &pa, ta);
  Transceiver b(w, medium, &b_mobility, tb);
  Transceiver c(w, medium, &pc, tc);
  CsmaMac::Params mp;
  mp.poll_deferral = poll;
  CsmaMac mac(w, b, sim::Rng(5), mp);
  DeferralProbe out;
  w.sim().schedule_at(sim::Time::zero(), [&] { a.transmit(20'000, nullptr); });
  w.sim().schedule_at(sim::Time::ms(1), [&] {
    mac.send(kBroadcast, 800, nullptr,
             [&](bool) { out.done_ns = w.now().count(); });
  });
  w.sim().schedule_at(at, [&] { during(b); });
  w.sim().run();
  out.digest = medium.behaviour_digest();
  out.events = w.sim().executed();
  return out;
}

// A channel hop mid-deferral moves the idle edge: B, now alone on channel
// 11, must re-check at the next slot of its grid, as polling does, and
// send long before A's frame ends at 10 ms.
TEST(CsmaMac, ChannelHopDuringDeferralRechecksAtTheNextSlot) {
  env::StaticMobility pb({5, 0});
  const auto hop = [](Transceiver& b) { b.set_channel(11); };
  const DeferralProbe oracle = run_deferral(true, pb, hop);
  const DeferralProbe edge = run_deferral(false, pb, hop);
  EXPECT_EQ(edge.done_ns, oracle.done_ns);
  EXPECT_EQ(edge.digest, oracle.digest);
  EXPECT_GT(edge.done_ns, sim::Time::us(2'007).count());
  EXPECT_LT(edge.done_ns, sim::Time::ms(10).count());
  EXPECT_LT(edge.events, oracle.events);
}

// On a grid instant the hop comes first (it was scheduled earlier), so
// polling's re-check at that very instant already sees channel 11.
TEST(CsmaMac, ChannelHopOnAGridInstantRechecksThatInstant) {
  env::StaticMobility pb({5, 0});
  const auto hop = [](Transceiver& b) { b.set_channel(11); };
  const DeferralProbe oracle =
      run_deferral(true, pb, hop, sim::Time::us(2'000));
  const DeferralProbe edge = run_deferral(false, pb, hop, sim::Time::us(2'000));
  EXPECT_EQ(edge.done_ns, oracle.done_ns);
  EXPECT_EQ(edge.digest, oracle.digest);
  EXPECT_LT(edge.done_ns, sim::Time::ms(10).count());
}

TEST(CsmaMac, PowerToggleDuringDeferralMatchesPolling) {
  env::StaticMobility pb({5, 0});
  const auto toggle = [](Transceiver& b) {
    b.set_powered(false);
    b.set_powered(true);
  };
  const DeferralProbe oracle = run_deferral(true, pb, toggle);
  const DeferralProbe edge = run_deferral(false, pb, toggle);
  EXPECT_EQ(edge.done_ns, oracle.done_ns);
  EXPECT_EQ(edge.digest, oracle.digest);
  EXPECT_GT(edge.done_ns, sim::Time::ms(10).count());  // waited A out
}

// A radio that can move senses energy that changes with its position, so
// it keeps the one-slot re-check: B drives out of A's carrier-sense range
// mid-frame and sends at the same slot as the polling oracle.
TEST(CsmaMac, MovingRadioKeepsOneSlotRecheck) {
  env::LinearMobility pb({90, 0}, {4'000, 0});  // past 100 m at 2.5 ms
  const auto none = [](Transceiver&) {};
  const DeferralProbe oracle = run_deferral(true, pb, none);
  const DeferralProbe edge = run_deferral(false, pb, none);
  EXPECT_EQ(edge.done_ns, oracle.done_ns);
  EXPECT_EQ(edge.digest, oracle.digest);
  EXPECT_LT(edge.done_ns, sim::Time::ms(10).count());
}

// The one case where the edge re-check fires live instead of being made
// stale by a frame-end resync: X and Y are each below O's CCA threshold
// alone but above it together, O hears neither frame (its sensitivity is
// above both), and X ends off O's slot grid while Y is still on the air.
TEST(CsmaMac, LiveRecheckAtAnUnheardIdleEdge) {
  const auto run = [](bool poll) {
    sim::World w(4);
    env::RadioMedium medium(w, flat_model());
    // 15 dBm - (40 + 30 log10 d) = -87 dBm at O from each of X and Y.
    const double d = std::pow(10.0, (15.0 - 40.0 + 87.0) / 30.0);
    env::StaticMobility po({0, 0}), px({d, 0}), py({-d, 0});
    Transceiver::Params to, tx, ty;
    to.config.id = 1;
    to.config.sensitivity_dbm = -80.0;
    to.config.cca_threshold_dbm = -85.0;
    tx.config.id = 2;
    ty.config.id = 3;
    Transceiver o(w, medium, &po, to);
    Transceiver x(w, medium, &px, tx);
    Transceiver y(w, medium, &py, ty);
    CsmaMac::Params mp;
    mp.poll_deferral = poll;
    CsmaMac mac(w, o, sim::Rng(9), mp);
    DeferralProbe out;
    sim::Time edge_seen = sim::Time::zero();
    w.sim().schedule_at(sim::Time::zero(),
                        [&] { y.transmit(20'000, nullptr); });
    w.sim().schedule_at(sim::Time::ms(1), [&] { x.transmit(4'000, nullptr); });
    w.sim().schedule_at(sim::Time::us(1'507), [&] {
      EXPECT_TRUE(o.carrier_busy());
      edge_seen = medium.carrier_idle_at(o);
      mac.send(kBroadcast, 800, nullptr,
               [&](bool) { out.done_ns = w.now().count(); });
    });
    w.sim().run();
    EXPECT_EQ(edge_seen, sim::Time::ms(3));  // X's end: Y alone reads idle
    EXPECT_EQ(o.frames_received(), 0u);
    out.digest = medium.behaviour_digest();
    out.events = w.sim().executed();
    return out;
  };
  const DeferralProbe oracle = run(true);
  const DeferralProbe edge = run(false);
  EXPECT_EQ(edge.done_ns, oracle.done_ns);
  EXPECT_EQ(edge.digest, oracle.digest);
  // Sent while Y was still on the air: the re-check at 3.007 ms found the
  // channel idle with no frame end to resync on.
  EXPECT_GT(edge.done_ns, sim::Time::us(3'007).count());
  EXPECT_LT(edge.done_ns, sim::Time::ms(10).count());
  EXPECT_LT(edge.events, oracle.events);
}

// --- PhysicalUser ------------------------------------------------------

TEST(PhysicalUser, ReadingDependsOnAcuityAndDistance) {
  PhysicalUser u(1, "u", nullptr);
  EXPECT_TRUE(u.can_read(3.0, 0.5));    // laptop text at arm's length
  EXPECT_FALSE(u.can_read(3.0, 4.0));   // same text across the room
  EXPECT_TRUE(u.can_read(40.0, 4.0));   // projected glyphs across the room
  Physiology weak;
  weak.visual_acuity = 0.3;
  PhysicalUser lowvision(2, "lv", nullptr, weak);
  EXPECT_FALSE(lowvision.can_read(3.0, 0.5));
}

TEST(PhysicalUser, PressAndHear) {
  PhysicalUser u(1, "u", nullptr);
  EXPECT_TRUE(u.can_press(10.0));
  EXPECT_FALSE(u.can_press(2.0));
  EXPECT_TRUE(u.can_hear(60.0, 40.0));
  EXPECT_FALSE(u.can_hear(10.0, 40.0));   // below threshold
  EXPECT_FALSE(u.can_hear(50.0, 70.0));   // masked by noise
}

TEST(PhysicalUser, CompatibilityFindings) {
  PhysicalUser u(1, "presenter", nullptr);
  env::AmbientConditions cond;
  // PDA with tiny text read at 1 m: unreadable.
  auto issues = check_physical_compatibility(u, profiles::pda(), 1.0, cond);
  bool found_text = false;
  for (const auto& i : issues) {
    found_text |= i.description.find("unreadable") != std::string::npos;
  }
  EXPECT_TRUE(found_text);

  // Laptop at arm's length in a sane office: clean.
  EXPECT_TRUE(
      check_physical_compatibility(u, profiles::laptop(), 0.5, cond).empty());

  // Projector in an overheated room: operating-range violation.
  cond.temperature_c = 40.0;
  issues = check_physical_compatibility(u, profiles::digital_projector(), 4.0,
                                        cond);
  bool found_thermal = false;
  for (const auto& i : issues) {
    found_thermal |= i.description.find("temperature") != std::string::npos;
  }
  EXPECT_TRUE(found_thermal);
}

// --- Device --------------------------------------------------------------

TEST(Device, WiresRadioForRadioProfiles) {
  sim::World w(1);
  env::Environment e(w);
  Device d(w, e, 42, profiles::aroma_adapter(),
           std::make_unique<env::StaticMobility>(env::Vec2{1, 1}));
  EXPECT_TRUE(d.has_radio());
  EXPECT_EQ(d.mac().address(), 42u);
  EXPECT_EQ(d.position(), (env::Vec2{1, 1}));
  EXPECT_TRUE(d.operational());
  EXPECT_EQ(e.medium().attached_count(), 1u);
}

TEST(Device, NoRadioForWiredProfiles) {
  sim::World w(1);
  env::Environment e(w);
  Device d(w, e, 7, profiles::digital_projector(),
           std::make_unique<env::StaticMobility>(env::Vec2{0, 0}));
  EXPECT_FALSE(d.has_radio());
}

TEST(Device, BatteryDepletionStopsOperation) {
  sim::World w(1);
  env::Environment e(w);
  Device::Options opt;
  opt.battery_powered = true;
  opt.battery.capacity_j = 10.0;
  auto profile = profiles::future_soc();
  profile.idle_power_w = 1.0;
  Device d(w, e, 9, profile,
           std::make_unique<env::StaticMobility>(env::Vec2{0, 0}), opt);
  EXPECT_TRUE(d.operational());
  w.sim().run_until(sim::Time::sec(60));
  EXPECT_FALSE(d.operational());
}

TEST(Device, ThermalEnvelopeGatesOperation) {
  sim::World w(1);
  env::Environment e(w);
  Device d(w, e, 5, profiles::digital_projector(),
           std::make_unique<env::StaticMobility>(env::Vec2{0, 0}));
  EXPECT_TRUE(d.operational());
  e.conditions().temperature_c = 50.0;
  EXPECT_FALSE(d.operational());
}

// Two devices talk end-to-end through their MACs.
TEST(Device, EndToEndMacTraffic) {
  sim::World w(1);
  env::Environment e(w);
  Device a(w, e, 1, profiles::laptop(),
           std::make_unique<env::StaticMobility>(env::Vec2{0, 0}));
  Device b(w, e, 2, profiles::aroma_adapter(),
           std::make_unique<env::StaticMobility>(env::Vec2{6, 0}));
  int got = 0;
  b.mac().set_receive_handler(
      [&](MacAddress, const MacPayload&, std::size_t) { ++got; });
  a.mac().send(2, 4'000, nullptr);
  w.sim().run();
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace aroma::phys

// Cross-module property tests: parameterized sweeps asserting invariants
// that must hold across whole regions of the configuration space, not just
// at hand-picked points.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>

#include "disco/jini.hpp"
#include "disco/slp.hpp"
#include "disco/ssdp.hpp"
#include "env/environment.hpp"
#include "net/stack.hpp"
#include "net/stream.hpp"
#include "phys/device.hpp"
#include "rfb/encoding.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

namespace aroma {
namespace {

struct Cell {
  explicit Cell(std::uint64_t seed) : world(seed), env(world) {}
  Cell(std::uint64_t seed, env::Environment::Params params)
      : world(seed), env(world, params) {}

  struct Node {
    phys::Device* device;
    net::NetStack* stack;
  };

  Node add(std::uint64_t id, env::Vec2 pos,
           phys::DeviceProfile profile, int channel = 6) {
    phys::Device::Options opt;
    opt.channel = channel;
    devices.push_back(std::make_unique<phys::Device>(
        world, env, id, std::move(profile),
        std::make_unique<env::StaticMobility>(pos), opt));
    stacks.push_back(
        std::make_unique<net::NetStack>(world, devices.back()->mac()));
    return {devices.back().get(), stacks.back().get()};
  }

  sim::World world;
  env::Environment env;
  std::vector<std::unique_ptr<phys::Device>> devices;
  std::vector<std::unique_ptr<net::NetStack>> stacks;
};

// --- Property: MAC is lossless (with ARQ) and roughly fair ------------------

class MacFairness : public ::testing::TestWithParam<int> {};

TEST_P(MacFairness, AllDeliveredAndJainFair) {
  const int senders = GetParam();
  Cell cell(100 + static_cast<std::uint64_t>(senders));
  auto sink = cell.add(1, {0, 0}, phys::profiles::aroma_adapter());
  std::map<net::NodeId, int> delivered_from;
  sink.stack->bind(100, [&](const net::Datagram& dg) {
    ++delivered_from[dg.src.node];
  });

  std::vector<Cell::Node> nodes;
  const int frames_each = 30;
  for (int i = 0; i < senders; ++i) {
    const double angle = 6.28318 * i / senders;
    nodes.push_back(cell.add(10 + static_cast<std::uint64_t>(i),
                             {6 * std::cos(angle), 6 * std::sin(angle)},
                             phys::profiles::laptop()));
  }
  // Closed-loop: each sender keeps one frame in flight until its quota.
  std::vector<int> sent(static_cast<std::size_t>(senders), 0);
  std::vector<std::function<void()>> pumps(static_cast<std::size_t>(senders));
  for (int i = 0; i < senders; ++i) {
    pumps[static_cast<std::size_t>(i)] = [&, i] {
      if (sent[static_cast<std::size_t>(i)]++ >= frames_each) return;
      nodes[static_cast<std::size_t>(i)].stack->send(
          {1, 100}, 50, std::vector<std::byte>(600),
          [&, i](bool) { pumps[static_cast<std::size_t>(i)](); });
    };
    pumps[static_cast<std::size_t>(i)]();
  }
  cell.world.sim().run();

  // Losslessness: every sender's full quota arrives (ARQ hides collisions).
  std::vector<double> counts;
  for (const auto& node : nodes) {
    const int got = delivered_from[node.stack->node_id()];
    EXPECT_EQ(got, frames_each) << "sender " << node.stack->node_id();
    counts.push_back(static_cast<double>(got));
  }
  // Jain fairness index ~ 1.0 for equal shares.
  const double sum = std::accumulate(counts.begin(), counts.end(), 0.0);
  const double sum_sq = std::inner_product(counts.begin(), counts.end(),
                                           counts.begin(), 0.0);
  const double jain =
      sum * sum / (static_cast<double>(counts.size()) * sum_sq);
  EXPECT_GT(jain, 0.95);
}

INSTANTIATE_TEST_SUITE_P(SenderCounts, MacFairness,
                         ::testing::Values(2, 4, 7, 12));

// --- Property: streams deliver exact bytes under any interference level ----

class StreamRobustness : public ::testing::TestWithParam<int> {};

TEST_P(StreamRobustness, PayloadIntactUnderContention) {
  const int interferers = GetParam();
  Cell cell(200 + static_cast<std::uint64_t>(interferers));
  auto a = cell.add(1, {0, 0}, phys::profiles::laptop());
  auto b = cell.add(2, {5, 0}, phys::profiles::laptop());
  std::vector<std::unique_ptr<sim::PeriodicTimer>> blasters;
  for (int i = 0; i < interferers; ++i) {
    auto n = cell.add(10 + static_cast<std::uint64_t>(i),
                      {2.0 + i, 2.0}, phys::profiles::laptop());
    blasters.push_back(std::make_unique<sim::PeriodicTimer>(
        cell.world.sim(), sim::Time::ms(7 + i),
        [stack = n.stack] {
          stack->send_multicast(55, 999, 999, std::vector<std::byte>(700));
        }));
    blasters.back()->start();
  }

  net::StreamManager ma(cell.world, *a.stack, 5000);
  net::StreamManager mb(cell.world, *b.stack, 5000);
  std::vector<std::byte> rx;
  mb.listen([&](const std::shared_ptr<net::StreamConnection>& c) {
    static std::shared_ptr<net::StreamConnection> keep;
    keep = c;
    c->set_data_handler([&](std::span<const std::byte> d) {
      rx.insert(rx.end(), d.begin(), d.end());
    });
  });
  auto conn = ma.connect(2);
  std::vector<std::byte> payload(40'000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
  }
  conn->send(payload);
  cell.world.sim().run_until(sim::Time::sec(300));
  for (auto& bl : blasters) bl->stop();
  EXPECT_EQ(rx, payload) << "with " << interferers << " interferers";
}

INSTANTIATE_TEST_SUITE_P(InterfererCounts, StreamRobustness,
                         ::testing::Values(0, 1, 3, 6));

// --- Property: every discovery protocol finds a present service -------------

enum class Proto { kJini, kSlpDa, kSlpNoDa, kSsdp };

class DiscoveryCompleteness : public ::testing::TestWithParam<Proto> {};

TEST_P(DiscoveryCompleteness, PresentServiceIsFound) {
  Cell cell(300);
  auto infra = cell.add(1, {0, 8}, phys::profiles::desktop_pc_with_radio());
  auto provider = cell.add(2, {3, 0}, phys::profiles::aroma_adapter());
  auto seeker = cell.add(3, {0, 3}, phys::profiles::laptop());

  disco::ServiceDescription svc;
  svc.type = "projector/display";
  svc.endpoint = {2, 5800};

  bool found = false;
  const auto on_found = [&](std::vector<disco::ServiceDescription> s) {
    for (const auto& d : s) found |= d.type == "projector/display";
  };

  switch (GetParam()) {
    case Proto::kJini: {
      disco::JiniRegistrar registrar(cell.world, *infra.stack);
      disco::JiniClient prov(cell.world, *provider.stack);
      disco::JiniClient seek(cell.world, *seeker.stack);
      prov.register_service(svc, [](bool, disco::ServiceId) {});
      cell.world.sim().run_until(sim::Time::sec(10));
      seek.lookup(disco::ServiceTemplate{"projector", {}}, on_found);
      cell.world.sim().run_until(sim::Time::sec(20));
      break;
    }
    case Proto::kSlpDa: {
      disco::SlpDirectoryAgent da(cell.world, *infra.stack);
      disco::SlpServiceAgent sa(cell.world, *provider.stack);
      disco::SlpUserAgent ua(cell.world, *seeker.stack);
      cell.world.sim().run_until(sim::Time::sec(1));
      sa.advertise(svc);
      cell.world.sim().run_until(sim::Time::sec(10));
      ua.find(disco::ServiceTemplate{"projector", {}}, on_found);
      cell.world.sim().run_until(sim::Time::sec(20));
      break;
    }
    case Proto::kSlpNoDa: {
      disco::SlpServiceAgent sa(cell.world, *provider.stack);
      disco::SlpUserAgent ua(cell.world, *seeker.stack);
      sa.advertise(svc);
      cell.world.sim().run_until(sim::Time::sec(1));
      ua.find(disco::ServiceTemplate{"projector", {}}, on_found);
      cell.world.sim().run_until(sim::Time::sec(20));
      break;
    }
    case Proto::kSsdp: {
      disco::SsdpAdvertiser adv(cell.world, *provider.stack);
      disco::SsdpControlPoint cp(cell.world, *seeker.stack);
      adv.advertise(svc);
      cell.world.sim().run_until(sim::Time::sec(1));
      cp.find(disco::ServiceTemplate{"projector", {}}, on_found);
      cell.world.sim().run_until(sim::Time::sec(20));
      break;
    }
  }
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, DiscoveryCompleteness,
                         ::testing::Values(Proto::kJini, Proto::kSlpDa,
                                           Proto::kSlpNoDa, Proto::kSsdp),
                         [](const ::testing::TestParamInfo<Proto>& info) {
                           switch (info.param) {
                             case Proto::kJini: return "jini";
                             case Proto::kSlpDa: return "slp_da";
                             case Proto::kSlpNoDa: return "slp_noda";
                             case Proto::kSsdp: return "ssdp";
                           }
                           return "unknown";
                         });

// --- Property: encodings never corrupt any randomly generated screen -------

class EncodingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EncodingFuzz, RandomContentRoundTripsAllEncodings) {
  sim::Rng rng(GetParam());
  const int w = 17 + static_cast<int>(rng.uniform_int(0, 200));
  const int h = 11 + static_cast<int>(rng.uniform_int(0, 150));
  rfb::Framebuffer fb(w, h, 0);
  // Mixed content: random solid rects over noise patches.
  const int rects = static_cast<int>(rng.uniform_int(0, 12));
  for (int i = 0; i < rects; ++i) {
    fb.fill_rect({static_cast<int>(rng.uniform_int(-5, w)),
                  static_cast<int>(rng.uniform_int(-5, h)),
                  static_cast<int>(rng.uniform_int(1, w)),
                  static_cast<int>(rng.uniform_int(1, h))},
                 static_cast<rfb::Pixel>(rng.next_u64()));
  }
  for (int i = 0; i < 200; ++i) {
    fb.set(static_cast<int>(rng.uniform_int(0, w - 1)),
           static_cast<int>(rng.uniform_int(0, h - 1)),
           static_cast<rfb::Pixel>(rng.next_u64()));
  }
  for (auto enc : {rfb::Encoding::kRaw, rfb::Encoding::kRle,
                   rfb::Encoding::kTiled}) {
    const auto bytes = rfb::encode_rect(fb, fb.bounds(), enc);
    rfb::Framebuffer out(w, h, 0xffffffff);
    ASSERT_TRUE(rfb::decode_rect(out, fb.bounds(), enc, bytes))
        << to_string(enc) << " seed=" << GetParam();
    ASSERT_TRUE(out.same_content(fb))
        << to_string(enc) << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- Property: determinism — identical seeds, identical worlds -------------

class Determinism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Determinism, WholeStackRunsAreBitReproducible) {
  auto run = [&](std::uint64_t seed) {
    Cell cell(seed);
    auto a = cell.add(1, {0, 0}, phys::profiles::laptop());
    auto b = cell.add(2, {5, 0}, phys::profiles::laptop());
    auto c = cell.add(3, {2, 4}, phys::profiles::laptop());
    std::vector<std::uint64_t> trace;
    b.stack->bind(100, [&](const net::Datagram& dg) {
      trace.push_back(static_cast<std::uint64_t>(cell.world.now().count()) ^
                      dg.src.node);
    });
    for (int i = 0; i < 20; ++i) {
      a.stack->send({2, 100}, 50, std::vector<std::byte>(300));
      c.stack->send({2, 100}, 50, std::vector<std::byte>(300));
    }
    cell.world.sim().run();
    return trace;
  };
  const auto t1 = run(GetParam());
  const auto t2 = run(GetParam());
  EXPECT_EQ(t1, t2);
  EXPECT_FALSE(t1.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Determinism,
                         ::testing::Values(1, 17, 4242, 999983));

// --- Property: the event kernel matches a naive reference scheduler ---------
//
// Random interleavings of schedule / cancel / run_until are mirrored into a
// brute-force reference (linear scan for the (time, seq)-minimum). The
// kernel's firing order, cancel verdicts, and clock must match exactly —
// including cancels aimed at handles whose events already fired.

class KernelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelEquivalence, RandomInterleavingsMatchNaiveScheduler) {
  sim::Rng rng(GetParam());
  sim::Simulator s;

  struct RefEvent {
    sim::Time when;
    std::uint64_t seq;
    int tag;
    bool live;
  };
  std::vector<RefEvent> ref;
  std::uint64_t next_seq = 0;
  sim::Time ref_now = sim::Time::zero();
  std::vector<int> fired, ref_fired;
  // Handles stay listed after firing so cancels can target stale ones.
  std::vector<std::pair<sim::EventHandle, std::size_t>> handles;

  const auto ref_run_until = [&](sim::Time deadline) {
    for (;;) {
      std::size_t best = ref.size();
      for (std::size_t j = 0; j < ref.size(); ++j) {
        if (!ref[j].live || ref[j].when > deadline) continue;
        if (best == ref.size() || ref[j].when < ref[best].when ||
            (ref[j].when == ref[best].when && ref[j].seq < ref[best].seq)) {
          best = j;
        }
      }
      if (best == ref.size()) break;
      ref[best].live = false;
      ref_now = ref[best].when;
      ref_fired.push_back(ref[best].tag);
    }
    if (ref_now < deadline) ref_now = deadline;
  };

  for (int op = 0; op < 800; ++op) {
    const long roll = rng.uniform_int(0, 99);
    if (roll < 55) {
      const auto delay = sim::Time::us(rng.uniform_int(0, 5'000));
      const int tag = op;
      auto h = s.schedule_in(delay, [&fired, tag] { fired.push_back(tag); });
      ref.push_back({ref_now + delay, next_seq++, tag, true});
      handles.emplace_back(h, ref.size() - 1);
    } else if (roll < 80 && !handles.empty()) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<long>(handles.size()) - 1));
      const bool kernel_ok = s.cancel(handles[k].first);
      const bool ref_ok = ref[handles[k].second].live;
      ASSERT_EQ(kernel_ok, ref_ok) << "cancel verdict diverged at op " << op;
      ref[handles[k].second].live = false;
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const auto deadline = s.now() + sim::Time::us(rng.uniform_int(0, 3'000));
      s.run_until(deadline);
      ref_run_until(deadline);
      ASSERT_EQ(s.now(), ref_now) << "clock diverged at op " << op;
    }
    ASSERT_EQ(fired, ref_fired) << "firing order diverged at op " << op;
  }
  s.run();
  ref_run_until(sim::Time::sec(1e9));
  EXPECT_EQ(fired, ref_fired);
  EXPECT_FALSE(fired.empty());
  EXPECT_EQ(s.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalence,
                         ::testing::Values(3, 71, 2026, 888871, 31337));

// --- Property: the production medium computes what the oracle does --------
//
// The same traffic through the production medium (range cull, memos,
// caches) and the exhaustive oracle must produce bit-identical MediumStats
// and per-node delivery counts: culling may only skip receivers that
// provably hear nothing.

class MediumIndexEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MediumIndexEquivalence, BatchAndExhaustiveScansAgreeBitForBit) {
  const auto run = [&](bool batch) {
    env::Environment::Params params;
    params.arena = {{0, 0}, {120, 120}};
    params.medium.batch = batch;
    Cell cell(GetParam(), params);

    sim::Rng layout(GetParam() ^ 0xabcdef);
    std::vector<Cell::Node> nodes;
    static constexpr int kChannels[3] = {1, 6, 11};
    for (std::uint64_t i = 0; i < 24; ++i) {
      const env::Vec2 pos{layout.uniform(0.0, 120.0),
                          layout.uniform(0.0, 120.0)};
      nodes.push_back(cell.add(i + 1, pos, phys::profiles::laptop(),
                               kChannels[i % 3]));
      nodes.back().stack->join_group(9);
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (int k = 0; k < 6; ++k) {
        cell.world.sim().schedule_at(
            sim::Time::ms(5 * static_cast<int>(i) + 40 * k),
            [stack = nodes[i].stack] {
              stack->send_multicast(9, 77, 77, std::vector<std::byte>(200));
            });
      }
    }
    cell.world.sim().run();

    std::vector<std::uint64_t> summary;
    const env::MediumStats& ms = cell.env.medium().stats();
    summary.push_back(ms.transmissions);
    summary.push_back(ms.deliveries_attempted);
    summary.push_back(ms.deliveries_decodable);
    summary.push_back(ms.losses_sinr);
    summary.push_back(ms.losses_half_duplex);
    summary.push_back(ms.losses_rx_off);
    for (const auto& n : nodes) {
      summary.push_back(n.device->radio().frames_received());
    }
    summary.push_back(cell.world.sim().executed());
    return summary;
  };
  const auto production = run(true);
  const auto oracle = run(false);
  EXPECT_EQ(production, oracle);
  EXPECT_GT(production[0], 0u);  // transmissions happened
  EXPECT_GT(production[2], 0u);  // something decodable got through
}

INSTANTIATE_TEST_SUITE_P(Seeds, MediumIndexEquivalence,
                         ::testing::Values(7, 1001, 424243));

}  // namespace
}  // namespace aroma

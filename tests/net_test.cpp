// Tests for the network substrate: serialization, datagram stack, streams.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>

#include "env/environment.hpp"
#include "net/serialize.hpp"
#include "net/stack.hpp"
#include "net/stream.hpp"
#include "phys/device.hpp"
#include "sim/world.hpp"

namespace aroma::net {
namespace {

// A reusable two-or-more-node wireless testbed.
class Testbed {
 public:
  explicit Testbed(std::uint64_t seed = 1) : world_(seed), env_(world_) {}

  NetStack& add_node(std::uint64_t id, env::Vec2 pos) {
    auto profile = phys::profiles::laptop();
    devices_.push_back(std::make_unique<phys::Device>(
        world_, env_, id, profile,
        std::make_unique<env::StaticMobility>(pos)));
    stacks_.push_back(
        std::make_unique<NetStack>(world_, devices_.back()->mac()));
    return *stacks_.back();
  }

  sim::World& world() { return world_; }
  void run() { world_.sim().run(); }
  void run_until(sim::Time t) { world_.sim().run_until(t); }

 private:
  sim::World world_;
  env::Environment env_;
  std::vector<std::unique_ptr<phys::Device>> devices_;
  std::vector<std::unique_ptr<NetStack>> stacks_;
};

std::vector<std::byte> make_bytes(std::size_t n, int seed = 0) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + seed * 7 + 11) & 0xff);
  }
  return v;
}

// --- Serialization -----------------------------------------------------

TEST(Serialize, RoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.14159);
  w.str("hello pervasive world");
  const auto blob = make_bytes(13);
  w.bytes(blob);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello pervasive world");
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, TruncationSetsNotOk) {
  ByteWriter w;
  w.u64(42);
  auto data = w.take();
  data.resize(4);
  ByteReader r(data);
  (void)r.u64();
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, MalformedStringLength) {
  ByteWriter w;
  w.u32(1'000'000);  // claims a huge string, no payload
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, ReaderPastEndStaysFailed) {
  ByteWriter w;
  w.u8(1);
  ByteReader r(w.data());
  (void)r.u8();
  (void)r.u32();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // all subsequent reads return zero
}

// --- NetStack ----------------------------------------------------------

TEST(NetStack, UnicastDatagramToBoundPort) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  Datagram got;
  b.bind(100, [&](const Datagram& dg) { got = dg; });
  bool delivered = false;
  a.send({2, 100}, 50, make_bytes(32), [&](bool ok) { delivered = ok; });
  tb.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(got.src.node, 1u);
  EXPECT_EQ(got.src.port, 50);
  EXPECT_EQ(got.data, make_bytes(32));
  EXPECT_EQ(b.stats().delivered, 1u);
}

TEST(NetStack, WrongPortDropped) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  int hits = 0;
  b.bind(100, [&](const Datagram&) { ++hits; });
  a.send({2, 101}, 50, make_bytes(8));
  tb.run();
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(b.stats().dropped_no_listener, 1u);
}

TEST(NetStack, MulticastOnlyToMembers) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  auto& c = tb.add_node(3, {0, 5});
  int b_hits = 0, c_hits = 0;
  b.bind(200, [&](const Datagram&) { ++b_hits; });
  c.bind(200, [&](const Datagram&) { ++c_hits; });
  b.join_group(9);
  a.send_multicast(9, 200, 60, make_bytes(16));
  tb.run();
  EXPECT_EQ(b_hits, 1);
  EXPECT_EQ(c_hits, 0);
  EXPECT_EQ(c.stats().dropped_not_member, 1u);
  // Leaving stops delivery.
  b.leave_group(9);
  a.send_multicast(9, 200, 60, make_bytes(16));
  tb.run();
  EXPECT_EQ(b_hits, 1);
}

TEST(NetStack, UnbindStopsDelivery) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  int hits = 0;
  b.bind(100, [&](const Datagram&) { ++hits; });
  b.unbind(100);
  a.send({2, 100}, 50, make_bytes(8));
  tb.run();
  EXPECT_EQ(hits, 0);
}

TEST(NetStack, SendFailureReported) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  bool delivered = true;
  a.send({77, 100}, 50, make_bytes(8), [&](bool ok) { delivered = ok; });
  tb.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(a.stats().send_failures, 1u);
}

// --- Streams ---------------------------------------------------------------

struct StreamPair {
  StreamPair(Testbed& tb, NetStack& sa, NetStack& sb, Port port = 5000)
      : ma(tb.world(), sa, port), mb(tb.world(), sb, port) {
    mb.listen([this](const std::shared_ptr<StreamConnection>& c) {
      server = c;
      server->set_data_handler([this](std::span<const std::byte> d) {
        server_rx.insert(server_rx.end(), d.begin(), d.end());
      });
      server->set_closed_handler([this] { server_closed = true; });
    });
    client = ma.connect(sb.node_id());
    client->set_data_handler([this](std::span<const std::byte> d) {
      client_rx.insert(client_rx.end(), d.begin(), d.end());
    });
    client->set_closed_handler([this] { client_closed = true; });
  }

  StreamManager ma, mb;
  std::shared_ptr<StreamConnection> client, server;
  std::vector<std::byte> client_rx, server_rx;
  bool client_closed = false, server_closed = false;
};

TEST(Stream, EstablishesAndTransfersSmallMessage) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  StreamPair p(tb, a, b);
  p.client->send(make_bytes(100));
  tb.run();
  ASSERT_TRUE(p.server != nullptr);
  EXPECT_TRUE(p.client->established());
  EXPECT_EQ(p.server_rx, make_bytes(100));
}

TEST(Stream, BulkTransferIntegrity) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  StreamPair p(tb, a, b);
  const auto payload = make_bytes(100'000, 3);
  p.client->send(payload);
  tb.run();
  EXPECT_EQ(p.server_rx.size(), payload.size());
  EXPECT_EQ(p.server_rx, payload);
  EXPECT_EQ(p.client->stats().bytes_sent, payload.size());
}

TEST(Stream, BidirectionalTransfer) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  StreamPair p(tb, a, b);
  p.client->send(make_bytes(5'000, 1));
  tb.run_until(sim::Time::sec(2));
  ASSERT_TRUE(p.server != nullptr);
  p.server->send(make_bytes(7'000, 2));
  tb.run();
  EXPECT_EQ(p.server_rx, make_bytes(5'000, 1));
  EXPECT_EQ(p.client_rx, make_bytes(7'000, 2));
}

TEST(Stream, ManySmallSendsArriveInOrder) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  StreamPair p(tb, a, b);
  std::vector<std::byte> expected;
  for (int i = 0; i < 50; ++i) {
    auto chunk = make_bytes(37, i);
    expected.insert(expected.end(), chunk.begin(), chunk.end());
    p.client->send(std::move(chunk));
  }
  tb.run();
  EXPECT_EQ(p.server_rx, expected);
}

TEST(Stream, CloseFlushesThenSignalsPeer) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  StreamPair p(tb, a, b);
  p.client->send(make_bytes(20'000, 5));
  p.client->close();
  tb.run();
  EXPECT_EQ(p.server_rx, make_bytes(20'000, 5));
  EXPECT_TRUE(p.client_closed);
  EXPECT_TRUE(p.server_closed);
  EXPECT_TRUE(p.client->closed());
}

TEST(Stream, ConnectToDeadPeerEventuallyCloses) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  StreamManager ma(tb.world(), a, 5000);
  auto conn = ma.connect(99);  // nobody there
  bool closed = false;
  conn->set_closed_handler([&] { closed = true; });
  conn->send(make_bytes(10));
  tb.run();
  EXPECT_TRUE(closed);
  EXPECT_FALSE(conn->established());
}

TEST(Stream, UnackedBytesDrainToZero) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  StreamPair p(tb, a, b);
  p.client->send(make_bytes(30'000));
  EXPECT_GT(p.client->unacked_bytes(), 0u);
  // The ACK of the last byte disarms the RTO, so the connection is
  // quiescent at that instant, not once a stale timer has drained.
  while (p.client->unacked_bytes() > 0 && tb.world().sim().step()) {
  }
  EXPECT_EQ(p.client->unacked_bytes(), 0u);
  std::string why;
  EXPECT_TRUE(p.client->snap_quiescent(&why)) << why;
  tb.run();
  EXPECT_EQ(p.client->unacked_bytes(), 0u);
}

TEST(Stream, SurvivesInterferenceViaRetransmission) {
  // A third node blasts broadcast traffic on the same channel while the
  // transfer runs. MAC contention plus stream ARQ must still deliver
  // every byte intact.
  Testbed tb(11);
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  auto& c = tb.add_node(3, {2, 2});
  sim::PeriodicTimer blaster(tb.world().sim(), sim::Time::ms(3), [&] {
    c.send_multicast(55, 999, 999, make_bytes(600));
  });
  blaster.start();
  StreamPair p(tb, a, b);
  const auto payload = make_bytes(60'000, 9);
  p.client->send(payload);
  tb.run_until(sim::Time::sec(120));
  blaster.stop();
  EXPECT_EQ(p.server_rx, payload);
}

TEST(Stream, TwoConcurrentConnectionsAreIsolated) {
  Testbed tb;
  auto& a = tb.add_node(1, {0, 0});
  auto& b = tb.add_node(2, {5, 0});
  StreamManager ma(tb.world(), a, 5000), mb(tb.world(), b, 5000);
  std::vector<std::byte> rx1, rx2;
  std::vector<std::shared_ptr<StreamConnection>> accepted;
  mb.listen([&](const std::shared_ptr<StreamConnection>& c) {
    accepted.push_back(c);
    auto* sink = accepted.size() == 1 ? &rx1 : &rx2;
    c->set_data_handler([sink](std::span<const std::byte> d) {
      sink->insert(sink->end(), d.begin(), d.end());
    });
  });
  auto c1 = ma.connect(2);
  auto c2 = ma.connect(2);
  c1->send(make_bytes(4'000, 1));
  c2->send(make_bytes(4'000, 2));
  tb.run();
  EXPECT_EQ(rx1, make_bytes(4'000, 1));
  EXPECT_EQ(rx2, make_bytes(4'000, 2));
}

}  // namespace
}  // namespace aroma::net

// Multi-process fleet tests: wire framing, short-read recovery, forward
// compatibility, handshake version/endianness rejection, scenario-blob
// rejection, checkpoint migration, worker-kill recovery, and 1-vs-N-process
// bit-identity.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "fleet/coordinator.hpp"
#include "fleet/micro.hpp"
#include "fleet/proc.hpp"
#include "fleet/wire.hpp"
#include "fleet/worker.hpp"
#include "scn/ast.hpp"
#include "scn/blob.hpp"
#include "scn/compiler.hpp"
#include "scn/runtime.hpp"
#include "sim/fleet.hpp"

#ifndef AROMA_SCENARIO_DIR
#define AROMA_SCENARIO_DIR "scenarios"
#endif

namespace aroma::fleet {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(FleetWire, WriterReaderRoundTrip) {
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.str("projector room");
  const std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
  w.bytes(blob);

  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "projector room");
  const auto got = r.bytes();
  ASSERT_EQ(got.size(), blob.size());
  EXPECT_EQ(std::memcmp(got.data(), blob.data(), blob.size()), 0);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(FleetWire, ShardSpecRoundTrip) {
  ShardSpec spec;
  spec.shard_id = 17;
  spec.seed = 0xFEEDFACEDEADBEEFull;
  spec.kind = ShardKind::kMicro;
  spec.micro_rooms = 4096;
  spec.cadence_ns = 2'000'000'000;
  spec.telemetry = true;

  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  spec.encode(w);
  WireReader r(buf);
  const ShardSpec back = ShardSpec::decode(r);
  r.expect_end();
  EXPECT_EQ(back.shard_id, spec.shard_id);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.micro_rooms, spec.micro_rooms);
  EXPECT_EQ(back.cadence_ns, spec.cadence_ns);
  EXPECT_EQ(back.telemetry, spec.telemetry);
}

TEST(FleetWire, TruncatedBodyThrows) {
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  w.u32(7);  // only 4 bytes present
  WireReader r(buf);
  EXPECT_THROW(r.u64(), FleetError);
}

struct ChannelPair {
  Channel a;
  Channel b;
  static ChannelPair make() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    return ChannelPair{Channel(fds[0]), Channel(fds[1])};
  }
};

TEST(FleetWire, ChannelFramingRoundTrip) {
  ChannelPair p = ChannelPair::make();
  const std::vector<std::uint8_t> body{9, 8, 7, 6};
  ASSERT_TRUE(p.a.send(MsgType::kHeartbeat, 0, body));
  ASSERT_TRUE(p.a.send(MsgType::kRun, kIgnorable, {}));

  Frame f;
  ASSERT_EQ(p.b.recv(f, 1000), RecvStatus::kFrame);
  EXPECT_EQ(f.type, MsgType::kHeartbeat);
  EXPECT_EQ(f.flags, 0);
  ASSERT_EQ(f.body.size(), body.size());
  EXPECT_EQ(std::memcmp(f.body.data(), body.data(), body.size()), 0);

  ASSERT_EQ(p.b.recv(f, 1000), RecvStatus::kFrame);
  EXPECT_EQ(f.type, MsgType::kRun);
  EXPECT_EQ(f.flags, kIgnorable);
  EXPECT_TRUE(f.body.empty());

  EXPECT_EQ(p.b.recv(f, 0), RecvStatus::kTimeout);
  EXPECT_EQ(p.b.frames_received(), 2u);
  EXPECT_EQ(p.a.frames_sent(), 2u);
  EXPECT_GT(p.a.bytes_sent(), 0u);
}

TEST(FleetWire, ChannelRecoversFromShortReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Channel rx(fds[0]);

  // One frame: payload length 9 (type+flags+5-byte body), dribbled a few
  // bytes at a time.
  const std::uint8_t wire[] = {9, 0, 0, 0,                 // length
                               12, 0,                      // kHeartbeat
                               0, 0,                       // flags
                               'h', 'e', 'l', 'l', 'o'};   // body
  Frame f;
  for (std::size_t i = 0; i < sizeof(wire); ++i) {
    ASSERT_EQ(::write(fds[1], wire + i, 1), 1);
    if (i + 1 < sizeof(wire)) {
      EXPECT_EQ(rx.recv(f, 10), RecvStatus::kTimeout)
          << "frame decoded before all bytes arrived (i=" << i << ")";
    }
  }
  ASSERT_EQ(rx.recv(f, 1000), RecvStatus::kFrame);
  EXPECT_EQ(f.type, MsgType::kHeartbeat);
  ASSERT_EQ(f.body.size(), 5u);
  EXPECT_EQ(std::memcmp(f.body.data(), "hello", 5), 0);
  ::close(fds[1]);
  EXPECT_EQ(rx.recv(f, 1000), RecvStatus::kEof);
}

TEST(FleetWire, EofMidFrameReportsPartialBytes) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Channel rx(fds[0]);
  // Announce a 100-byte payload but deliver only the header + 3 bytes.
  const std::uint8_t partial[] = {100, 0, 0, 0, 5, 0, 0, 0, 1, 2, 3};
  ASSERT_EQ(::write(fds[1], partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(fds[1]);
  Frame f;
  EXPECT_EQ(rx.recv(f, 1000), RecvStatus::kEof);
  EXPECT_EQ(rx.partial_bytes(), sizeof(partial));
}

// ---------------------------------------------------------------------------
// Handshake: version/endianness mismatches are rejected before any blob.

TEST(FleetHandshake, ValidateHelloAcceptsSelf) {
  EXPECT_EQ(validate_hello(Hello{}), "");
}

TEST(FleetHandshake, ValidateHelloRejectsMismatches) {
  Hello h;
  h.protocol = kProtocolVersion + 1;
  EXPECT_NE(validate_hello(h).find("protocol version"), std::string::npos);

  h = Hello{};
  h.snap_version = snap::kFormatVersion + 7;
  EXPECT_NE(validate_hello(h).find("snap format version"), std::string::npos);

  h = Hello{};
  h.endianness = host_endianness() == Endianness::kLittle ? Endianness::kBig
                                                          : Endianness::kLittle;
  EXPECT_NE(validate_hello(h).find("endianness"), std::string::npos);

  h = Hello{};
  h.magic = 0x12345678;
  EXPECT_NE(validate_hello(h).find("magic"), std::string::npos);
}

// Regression for the cross-process blob-safety guarantee: a worker whose
// snap format version differs is refused at the handshake — it exits with
// the rejection code without ever being handed a shard or a blob.
TEST(FleetHandshake, IncompatibleWorkerIsRejectedBeforeAssignment) {
  WorkerProcess wp = WorkerProcess::spawn([](int fd) {
    Channel chan(fd);
    chan.send(MsgType::kHello, [](WireWriter& w) {
      Hello h;
      h.snap_version = snap::kFormatVersion + 1;  // a future blob format
      h.encode(w);
    });
    Frame f;
    while (true) {
      const RecvStatus st = chan.recv(f, -1);
      if (st == RecvStatus::kEof) return 1;
      if (f.type == MsgType::kReject) return 2;
      if (f.type == MsgType::kHelloAck) return 3;  // must not be accepted
    }
  });

  Frame f;
  ASSERT_EQ(wp.channel().recv(f, 10000), RecvStatus::kFrame);
  ASSERT_EQ(f.type, MsgType::kHello);
  WireReader r(f.body);
  const Hello hello = Hello::decode(r);
  const std::string why = validate_hello(hello);
  ASSERT_NE(why, "");
  ASSERT_TRUE(wp.channel().send(MsgType::kReject,
                                [&](WireWriter& w) { w.str(why); }));
  const int status = wp.wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

// ---------------------------------------------------------------------------
// Forward compatibility: a worker skips unknown-but-ignorable frames and
// still completes its protocol run.

TEST(FleetWorker, SkipsUnknownIgnorableFrames) {
  WorkerProcess wp =
      WorkerProcess::spawn([](int fd) { return worker_main(fd); });
  Channel& chan = wp.channel();

  Frame f;
  ASSERT_EQ(chan.recv(f, 10000), RecvStatus::kFrame);
  ASSERT_EQ(f.type, MsgType::kHello);
  ASSERT_TRUE(chan.send(MsgType::kHelloAck, [](WireWriter&) {}));

  // A frame type from the future, flagged ignorable: must be skipped.
  ASSERT_TRUE(chan.send(static_cast<MsgType>(0x7777),
                        [](WireWriter& w) { w.u64(123); }, kIgnorable));

  ShardSpec spec;
  spec.shard_id = 0;
  spec.seed = 99;
  spec.kind = ShardKind::kMicro;
  spec.micro_rooms = 16;
  ASSERT_TRUE(
      chan.send(MsgType::kAssign, [&](WireWriter& w) { spec.encode(w); }));
  ASSERT_TRUE(chan.send(MsgType::kRun, [](WireWriter&) {}));

  bool got_result = false;
  for (int i = 0; i < 1000 && !got_result; ++i) {
    const RecvStatus st = chan.recv(f, 100);
    if (st == RecvStatus::kEof) break;
    if (st == RecvStatus::kFrame && f.type == MsgType::kResult) {
      WireReader r(f.body);
      EXPECT_EQ(r.u64(), 0u);
      const std::uint64_t fp = r.u64();
      MicroShard reference(0, 99, 16);
      reference.finish();
      EXPECT_EQ(fp, reference.fingerprint());
      got_result = true;
    }
  }
  EXPECT_TRUE(got_result);
  ASSERT_TRUE(chan.send(MsgType::kShutdown, [](WireWriter&) {}));
  const int status = wp.wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---------------------------------------------------------------------------
// Scenario shipping: the worker decodes the coordinator's AROMSCEN blob with
// scn::decode, so a damaged blob is a typed rejection, never a crash.

std::vector<std::uint8_t> room_blob() {
  return scn::compile_file(std::string(AROMA_SCENARIO_DIR) +
                           "/smart_projector.scn");
}

std::vector<std::uint8_t> truncated(std::vector<std::uint8_t> blob) {
  blob.resize(blob.size() / 2);
  return blob;
}

std::vector<std::uint8_t> crc_damaged(std::vector<std::uint8_t> blob) {
  blob[blob.size() / 2] ^= 0x01;
  return blob;
}

TEST(FleetWorker, RejectsDamagedScenarioBlobWithTypedReason) {
  for (const auto& bad : {truncated(room_blob()), crc_damaged(room_blob())}) {
    std::string decoder_says;
    try {
      scn::decode(bad);
    } catch (const scn::ScnError& e) {
      decoder_says = e.what();
    }
    ASSERT_FALSE(decoder_says.empty());

    WorkerProcess wp =
        WorkerProcess::spawn([](int fd) { return worker_main(fd); });
    Channel& chan = wp.channel();
    Frame f;
    ASSERT_EQ(chan.recv(f, 10000), RecvStatus::kFrame);
    ASSERT_EQ(f.type, MsgType::kHello);
    ASSERT_TRUE(chan.send(MsgType::kHelloAck, [](WireWriter&) {}));
    ASSERT_TRUE(chan.send(MsgType::kScenario,
                          [&](WireWriter& w) { w.bytes(bad); }));

    bool answered = false;
    for (int i = 0; i < 200 && !answered; ++i) {
      const RecvStatus st = chan.recv(f, 100);
      ASSERT_NE(st, RecvStatus::kEof) << "worker died without answering";
      if (st != RecvStatus::kFrame || f.type != MsgType::kScenarioAck) continue;
      WireReader r(f.body);
      EXPECT_EQ(r.u8(), 0) << "damaged blob accepted";
      EXPECT_EQ(r.str(), decoder_says);
      r.expect_end();
      answered = true;
    }
    ASSERT_TRUE(answered);
    // A clean rejection exit, not a crash.
    const int status = wp.wait();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
  }
}

// The coordinator fails the run on the first rejection, before any kAssign:
// the error names the worker and the decoder's reason, and a good blob on
// the same options then runs to completion.
TEST(FleetProc, DamagedScenarioBlobFailsRunBeforeAssignment) {
  FleetOptions opt;
  opt.workers = 2;
  opt.shards = 2;
  opt.seed = 7;
  opt.kind = ShardKind::kRoom;
  opt.heartbeat_timeout_ms = 60000;
  for (const auto& bad : {truncated(room_blob()), crc_damaged(room_blob())}) {
    opt.scenario = bad;
    Coordinator coord(opt);
    try {
      coord.run();
      FAIL() << "damaged scenario blob accepted";
    } catch (const FleetError& e) {
      EXPECT_NE(std::string(e.what()).find("rejected the scenario blob"),
                std::string::npos)
          << e.what();
    }
  }
  opt.scenario.clear();
  EXPECT_THROW(Coordinator(opt).run(), FleetError);

  opt.scenario = room_blob();
  opt.workers = 1;
  opt.shards = 1;
  Coordinator good(opt);
  const FleetReport r = good.run();
  EXPECT_EQ(r.shards_completed, 1u);
  EXPECT_EQ(r.lost_shards, 0u);
}

// ---------------------------------------------------------------------------
// MicroShard determinism under checkpoint/restore.

TEST(MicroShard, RestoreResumesBitExact) {
  MicroShard straight(3, 777, 256);
  straight.finish();
  const std::uint64_t expected = straight.fingerprint();

  MicroShard source(3, 777, 256);
  source.run_until(sim::Time::sec(60.0));
  const std::vector<std::uint8_t> blob = source.checkpoint();

  MicroShard resumed(3, 777, 256);
  resumed.restore(blob, sim::Time::zero());
  EXPECT_EQ(resumed.now().count(), source.now().count());
  resumed.finish();
  EXPECT_EQ(resumed.fingerprint(), expected);
}

TEST(MicroShard, ScratchSerializationMatchesSaveAll) {
  MicroShard shard(1, 42, 128);
  shard.run_until(sim::Time::sec(50.0));
  const std::vector<std::uint8_t> direct = shard.checkpoint();
  snap::SaveScratch scratch;
  shard.checkpoint_into(scratch);
  EXPECT_EQ(scratch.blob, direct);
  // Re-serialize through the warmed scratch: still byte-identical.
  shard.checkpoint_into(scratch);
  EXPECT_EQ(scratch.blob, direct);
}

// ---------------------------------------------------------------------------
// Multi-process fleet runs. Expected fingerprints come from straight
// in-process runs of the same shards.

std::uint64_t straight_micro_fingerprint(std::size_t shards,
                                         std::uint64_t seed,
                                         std::uint32_t rooms) {
  std::vector<std::uint64_t> fps;
  fps.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    MicroShard m(i, sim::shard_seed(seed, i), rooms);
    m.finish();
    fps.push_back(m.fingerprint());
  }
  return sim::fleet_fingerprint(fps);
}

FleetOptions micro_options(std::size_t workers, std::size_t shards,
                           std::uint64_t seed, std::uint32_t rooms) {
  FleetOptions opt;
  opt.workers = workers;
  opt.shards = shards;
  opt.seed = seed;
  opt.kind = ShardKind::kMicro;
  opt.micro_rooms = rooms;
  opt.cadence_ns = 5'000'000'000;  // checkpoint every 5 simulated seconds
  opt.heartbeat_timeout_ms = 20000;  // generous: sanitizer-friendly
  return opt;
}

// Property: restore-after-migrate fingerprints match run-straight-through
// at 1, 8, and 64 shards.
TEST(FleetProc, MigrationPreservesFingerprintAcrossShardCounts) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8},
                                   std::size_t{64}}) {
    const std::uint64_t seed = 1000 + shards;
    FleetOptions opt = micro_options(2, shards, seed, 64);
    // Migrate the first shard after its first streamed checkpoint (its
    // 55 s horizon only has one 5 s cadence point past the 45 s setup) and,
    // when present, the fifth after its second.
    opt.migrations.push_back(MigrationPlan{0, 1});
    if (shards > 4) opt.migrations.push_back(MigrationPlan{4, 2});

    Coordinator coord(opt);
    const FleetReport report = coord.run();
    EXPECT_EQ(report.fleet_fp, straight_micro_fingerprint(shards, seed, 64))
        << "shards=" << shards;
    EXPECT_EQ(report.shards_completed, shards);
    EXPECT_EQ(report.lost_shards, 0u);
    EXPECT_EQ(report.migrations, shards > 4 ? 2u : 1u);
    const obs::Counter* migr =
        coord.fleet_metrics().find_counter("fleet.migrations");
    ASSERT_NE(migr, nullptr);
    EXPECT_EQ(migr->value(), report.migrations);
    const obs::HdrHistogram* hdr =
        coord.fleet_metrics().find_hdr("fleet.migration_ns");
    ASSERT_NE(hdr, nullptr);
    EXPECT_EQ(hdr->count(), report.migrations);
  }
}

TEST(FleetProc, WorkerKillExitIsRecoveredFromLastCheckpoint) {
  const std::size_t shards = 8;
  const std::uint64_t seed = 2024;
  FleetOptions opt = micro_options(2, shards, seed, 64);
  opt.kill = KillPlan{1, 3, KillMode::kExit};

  Coordinator coord(opt);
  const FleetReport report = coord.run();
  EXPECT_EQ(report.fleet_fp, straight_micro_fingerprint(shards, seed, 64));
  EXPECT_EQ(report.worker_deaths, 1u);
  EXPECT_EQ(report.lost_shards, 0u);
  EXPECT_EQ(report.shards_completed, shards);
  EXPECT_GE(report.recovery_ms, 0.0);

  // The death filed an LPC-classified issue at the resource layer (worker
  // processes and checkpoints are infrastructure vocabulary).
  ASSERT_FALSE(coord.issues().issues().empty());
  EXPECT_EQ(coord.issues().issues()[0].layer, lpc::Layer::kResource);
  EXPECT_TRUE(coord.issues().issues()[0].classified);
  const obs::Counter* deaths =
      coord.fleet_metrics().find_counter("fleet.worker_deaths");
  ASSERT_NE(deaths, nullptr);
  EXPECT_EQ(deaths->value(), 1u);
}

TEST(FleetProc, HungWorkerIsDetectedByHeartbeatWatchdog) {
  const std::size_t shards = 4;
  const std::uint64_t seed = 31337;
  FleetOptions opt = micro_options(2, shards, seed, 512);
  opt.cadence_ns = 1'000'000'000;  // keep the victim streaming
  opt.heartbeat_timeout_ms = 500;  // hang must be noticed via silence
  opt.kill = KillPlan{0, 2, KillMode::kHang};

  Coordinator coord(opt);
  const FleetReport report = coord.run();
  EXPECT_EQ(report.fleet_fp, straight_micro_fingerprint(shards, seed, 512));
  EXPECT_EQ(report.worker_deaths, 1u);
  EXPECT_EQ(report.lost_shards, 0u);
  const obs::Counter* fires =
      coord.fleet_metrics().find_counter("fleet.watchdog_fires");
  ASSERT_NE(fires, nullptr);
  EXPECT_EQ(fires->value(), 1u);
  bool watchdog_issue = false;
  for (const lpc::Issue& issue : coord.issues().issues()) {
    watchdog_issue |=
        issue.description.find("heartbeat watchdog") != std::string::npos;
  }
  EXPECT_TRUE(watchdog_issue);
}

// Full compiled Smart Projector rooms across processes: fingerprints and
// merged obs registries (counters + HDR histograms) must be bit-identical
// between a 1-worker and a 2-worker fleet.
TEST(FleetProc, RoomFleetMetricsBitIdenticalAcrossWorkerCounts) {
  const std::size_t shards = 2;
  FleetOptions opt;
  opt.shards = shards;
  opt.seed = 7;
  opt.kind = ShardKind::kRoom;
  opt.scenario = room_blob();
  opt.cadence_ns = 4'000'000'000;
  opt.telemetry = true;
  opt.heartbeat_timeout_ms = 60000;  // rooms are slow under sanitizers

  opt.workers = 1;
  Coordinator one(opt);
  const FleetReport r1 = one.run();

  opt.workers = 2;
  Coordinator two(opt);
  const FleetReport r2 = two.run();

  EXPECT_EQ(r1.fleet_fp, r2.fleet_fp);
  EXPECT_EQ(r1.total_events, r2.total_events);
  EXPECT_EQ(one.merged_shard_metrics().to_json(),
            two.merged_shard_metrics().to_json());

  // And the multi-process fingerprint equals the straight in-process run
  // of the same scenario.
  const scn::Scenario room = scn::decode(opt.scenario);
  const scn::FleetResult straight =
      scn::run_fleet(room, shards, opt.seed, 1, {.telemetry = true});
  EXPECT_EQ(r1.fleet_fp, straight.fleet_fp);
}

// Room shards survive the control plane's restore paths: a live migration
// and a killed worker's recovery from its last streamed checkpoint both
// land on the straight in-process fingerprint.
TEST(FleetProc, RoomShardsSurviveMigrationAndWorkerKill) {
  FleetOptions opt;
  opt.workers = 3;
  opt.shards = 4;
  opt.seed = 11;
  opt.kind = ShardKind::kRoom;
  opt.scenario = room_blob();
  opt.cadence_ns = 4'000'000'000;
  opt.heartbeat_timeout_ms = 60000;
  // Shard 0 moves from worker 0 to worker 1; worker 2 (owner of shard 2)
  // dies, so the migration target is never the dead worker.
  opt.migrations = {{0, 1}};
  opt.kill = KillPlan{2, 2, KillMode::kExit};
  Coordinator coord(opt);
  const FleetReport r = coord.run();
  EXPECT_EQ(r.migrations, 1u);
  EXPECT_EQ(r.worker_deaths, 1u);
  EXPECT_EQ(r.lost_shards, 0u);

  const scn::FleetResult straight =
      scn::run_fleet(scn::decode(opt.scenario), opt.shards, opt.seed, 1);
  EXPECT_EQ(r.fleet_fp, straight.fleet_fp);
  EXPECT_EQ(r.total_events, straight.events);
}

}  // namespace
}  // namespace aroma::fleet

// Tests for the snap subsystem: wire format, registry semantics, the
// checkpoint manager's full/incremental blobs, replay divergence search,
// and the end-to-end durability property on the compiled Smart Projector
// scenario — run(seed, N+M) == run(seed, N) -> checkpoint -> restore ->
// run(M), bit-equal fingerprints and metrics.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disco/lease.hpp"
#include "lpc/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "scn/blob.hpp"
#include "scn/compiler.hpp"
#include "scn/runtime.hpp"
#include "sim/fleet.hpp"
#include "sim/world.hpp"
#include "snap/checkpoint.hpp"
#include "snap/format.hpp"
#include "snap/replay.hpp"
#include "snap/snapshot.hpp"

namespace {

using namespace aroma;
using sim::Time;

// --- wire format -----------------------------------------------------------

TEST(SnapFormat, SectionPrimitivesRoundTrip) {
  snap::SectionWriter w(Time::sec(10.0));
  w.u8(0xab);
  w.b(true);
  w.b(false);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.25);
  w.str("hello");
  const std::uint8_t raw[3] = {1, 2, 3};
  w.bytes(raw, 3);
  w.time_delta(Time::sec(12.5));  // 2.5 s after capture
  w.duration(Time::sec(7.0));

  const std::vector<std::uint8_t> payload = w.take();
  snap::SectionReader r(payload, Time::sec(10.0));
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), std::vector<std::uint8_t>({1, 2, 3}));
  EXPECT_EQ(r.time_delta(), Time::sec(12.5));
  EXPECT_EQ(r.duration(), Time::sec(7.0));
  EXPECT_NO_THROW(r.expect_end());
}

TEST(SnapFormat, TimeDeltaRebasesOntoRestoreInstant) {
  snap::SectionWriter w(Time::sec(100.0));
  w.time_delta(Time::sec(112.0));  // 12 s ahead of capture
  w.time_delta(Time::sec(95.0));   // 5 s behind capture (a past timestamp)
  w.duration(Time::sec(30.0));

  const std::vector<std::uint8_t> payload = w.payload();
  // Restore 40 s later: every Time shifts by the gap, durations do not.
  snap::SectionReader r(payload, Time::sec(140.0));
  EXPECT_EQ(r.time_delta(), Time::sec(152.0));
  EXPECT_EQ(r.time_delta(), Time::sec(135.0));
  EXPECT_EQ(r.duration(), Time::sec(30.0));
}

TEST(SnapFormat, ReaderUnderflowAndTrailingBytesThrow) {
  snap::SectionWriter w(Time::zero());
  w.u32(7);
  const std::vector<std::uint8_t> payload = w.payload();

  snap::SectionReader under(payload, Time::zero());
  EXPECT_THROW(under.u64(), snap::SnapError);

  snap::SectionReader trailing(payload, Time::zero());
  trailing.u16();
  EXPECT_THROW(trailing.expect_end(), snap::SnapError);
}

std::vector<std::uint8_t> two_section_blob() {
  snap::SnapWriter w;
  snap::SectionWriter a(Time::zero());
  a.u64(11);
  w.add(snap::tag4("AAAA"), 0, a.take());
  snap::SectionWriter b(Time::zero());
  b.u64(22);
  w.add(snap::tag4("BBBB"), 0, b.take());
  return w.finish();
}

TEST(SnapFormat, BlobRoundTripValidates) {
  const std::vector<std::uint8_t> blob = two_section_blob();
  const snap::SnapReader r(blob);
  ASSERT_EQ(r.sections().size(), 2u);
  ASSERT_NE(r.find(snap::tag4("AAAA")), nullptr);
  ASSERT_NE(r.find(snap::tag4("BBBB")), nullptr);
  EXPECT_EQ(r.find(snap::tag4("CCCC")), nullptr);
}

TEST(SnapFormat, TruncatedBlobRejected) {
  const std::vector<std::uint8_t> blob = two_section_blob();
  for (const std::size_t keep : {std::size_t{4}, std::size_t{11},
                                 std::size_t{20}, blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<long>(keep));
    EXPECT_THROW(snap::SnapReader{cut}, snap::SnapError) << "keep=" << keep;
  }
}

TEST(SnapFormat, CorruptedPayloadFailsCrc) {
  std::vector<std::uint8_t> blob = two_section_blob();
  blob.back() ^= 0x01;  // flip one bit in the last section's payload
  EXPECT_THROW(snap::SnapReader{blob}, snap::SnapError);
}

TEST(SnapFormat, BadMagicAndVersionRejected) {
  std::vector<std::uint8_t> blob = two_section_blob();
  {
    std::vector<std::uint8_t> bad = blob;
    bad[0] = 'X';
    EXPECT_THROW(snap::SnapReader{bad}, snap::SnapError);
  }
  {
    std::vector<std::uint8_t> bad = blob;
    bad[8] = 0xff;  // unsupported version
    EXPECT_THROW(snap::SnapReader{bad}, snap::SnapError);
  }
}

TEST(SnapFormat, TrailingGarbageAfterSectionsRejected) {
  std::vector<std::uint8_t> blob = two_section_blob();
  blob.push_back(0x00);
  EXPECT_THROW(snap::SnapReader{blob}, snap::SnapError);
}

// --- registry semantics ----------------------------------------------------

TEST(SnapshotRegistry, UnknownRequiredSectionRejectedOptionalSkipped) {
  std::uint64_t value = 0;
  snap::SnapshotRegistry reg;
  reg.add(
      snap::tag4("AAAA"), "a", [&](snap::SectionWriter& w) { w.u64(value); },
      [&](snap::SectionReader& r, const snap::RestoreCtx&) {
        value = r.u64();
      });

  value = 123;
  std::vector<std::uint8_t> blob = reg.save_all(Time::zero());
  value = 0;
  reg.restore_all(snap::SnapReader{blob}, snap::RestoreCtx{});
  EXPECT_EQ(value, 123u);

  // A section this build does not know: required -> hard error.
  {
    snap::SnapWriter w;
    snap::SectionWriter a(Time::zero());
    a.u64(1);
    w.add(snap::tag4("AAAA"), 0, a.take());
    w.add(snap::tag4("ZZZZ"), 0, {});
    EXPECT_THROW(
        reg.restore_all(snap::SnapReader{w.finish()}, snap::RestoreCtx{}),
        snap::SnapError);
  }
  // Same section flagged optional -> forward-skippable.
  {
    snap::SnapWriter w;
    snap::SectionWriter a(Time::zero());
    a.u64(7);
    w.add(snap::tag4("AAAA"), 0, a.take());
    w.add(snap::tag4("ZZZZ"), snap::kSectionOptional, {});
    reg.restore_all(snap::SnapReader{w.finish()}, snap::RestoreCtx{});
    EXPECT_EQ(value, 7u);
  }
  // A registered required section missing from the blob -> hard error.
  {
    snap::SnapWriter w;
    w.add(snap::tag4("YYYY"), snap::kSectionOptional, {});
    EXPECT_THROW(
        reg.restore_all(snap::SnapReader{w.finish()}, snap::RestoreCtx{}),
        snap::SnapError);
  }
}

// --- lease rebasing --------------------------------------------------------

TEST(SnapLease, CheckpointMidLeaseRestoresAfterGapWithRemainingTime) {
  sim::World w1(7);
  disco::LeaseTable t1(w1);
  int expired = 0;
  t1.grant(42, Time::sec(10.0), [&] { ++expired; });
  w1.sim().run_until(Time::sec(4.0));  // 6 s of lease left
  ASSERT_TRUE(t1.active(42));

  snap::SectionWriter sw(w1.now());
  t1.save(sw);
  const std::vector<std::uint8_t> payload = sw.take();

  // Restore into a fresh world after a 3 s wall-clock gap: the lease must
  // still have its 6 s of remaining time, not expire retroactively.
  sim::World w2(7);
  w2.sim().run_until(Time::sec(7.0));
  disco::LeaseTable t2(w2);
  int expired2 = 0;
  snap::SectionReader sr(payload, w2.now());
  t2.restore(sr, [&](std::uint64_t) { return [&] { ++expired2; }; });
  sr.expect_end();

  ASSERT_TRUE(t2.active(42));
  EXPECT_EQ(t2.expiry(42), Time::sec(13.0));  // rebased: 7 + 6

  w2.sim().run_until(Time::sec(12.9));
  EXPECT_TRUE(t2.active(42));
  EXPECT_EQ(expired2, 0);
  w2.sim().run_until(Time::sec(13.1));
  EXPECT_FALSE(t2.active(42));
  EXPECT_EQ(expired2, 1);
  EXPECT_EQ(expired, 0);  // the original callback never leaked across
}

// --- replay harness --------------------------------------------------------

void schedule_chain(sim::Simulator& s, const std::vector<double>& at) {
  for (const double t : at) {
    s.schedule_at(Time::sec(t), [] {});
  }
}

TEST(ReplayHarness, IdenticalStreamsDoNotDiverge) {
  sim::World a, b;
  snap::ReplayHarness ha, hb;
  ha.attach(a.sim());
  hb.attach(b.sim());
  schedule_chain(a.sim(), {1, 2, 3, 5, 8});
  schedule_chain(b.sim(), {1, 2, 3, 5, 8});
  a.sim().run();
  b.sim().run();
  ha.detach(a.sim());
  hb.detach(b.sim());

  EXPECT_EQ(ha.size(), 5u);
  EXPECT_EQ(ha.stream_hash(), hb.stream_hash());
  const snap::Divergence d = snap::ReplayHarness::first_divergence(ha, hb);
  EXPECT_FALSE(d.diverged);
}

TEST(ReplayHarness, BinarySearchFindsFirstDivergingEvent) {
  sim::World a, b;
  snap::ReplayHarness ha, hb;
  ha.attach(a.sim());
  hb.attach(b.sim());
  schedule_chain(a.sim(), {1, 2, 3, 4, 5, 6, 7, 8});
  schedule_chain(b.sim(), {1, 2, 3, 4, 5.5, 6, 7, 8});  // diverges at index 4
  a.sim().run();
  b.sim().run();

  const snap::Divergence d = snap::ReplayHarness::first_divergence(ha, hb);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 4u);
  EXPECT_FALSE(d.length_mismatch);
  ASSERT_TRUE(d.expected.has_value());
  ASSERT_TRUE(d.actual.has_value());
  EXPECT_EQ(d.expected->when, Time::sec(5.0));
  EXPECT_EQ(d.actual->when, Time::sec(5.5));
}

TEST(ReplayHarness, PrefixStreamsReportLengthMismatch) {
  sim::World a, b;
  snap::ReplayHarness ha, hb;
  ha.attach(a.sim());
  hb.attach(b.sim());
  schedule_chain(a.sim(), {1, 2, 3, 4});
  schedule_chain(b.sim(), {1, 2, 3});
  a.sim().run();
  b.sim().run();

  const snap::Divergence d = snap::ReplayHarness::first_divergence(ha, hb);
  ASSERT_TRUE(d.diverged);
  EXPECT_TRUE(d.length_mismatch);
  EXPECT_EQ(d.index, 3u);
  ASSERT_TRUE(d.expected.has_value());
  EXPECT_FALSE(d.actual.has_value());
}

TEST(ReplayHarness, OneRecordRingCapturesEveryEventInOrder) {
  // The harness reads the kernel's trace ring through a single slot that
  // each event overwrites, so it must copy out every record before the
  // next event lands: 10,000 events, same-time runs included, in order.
  sim::Simulator s;
  snap::ReplayHarness h;
  h.attach(s);
  constexpr std::uint64_t kEvents = 10'000;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    s.schedule_at(Time::us(static_cast<std::int64_t>(i / 4)), [] {});
  }
  s.run();
  h.detach(s);
  s.schedule_in(Time::ms(1), [] {});
  s.run();  // detached: not recorded

  ASSERT_EQ(h.size(), kEvents);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    const snap::EventId& e = h.events()[i];
    ASSERT_EQ(e.when, Time::us(static_cast<std::int64_t>(i / 4))) << i;
    ASSERT_EQ(e.id, i + 1) << i;
    ASSERT_EQ(e.seq, i + 1) << i;
  }
}

// --- metrics / spans restore -----------------------------------------------

TEST(SnapObs, MetricsRegistryRoundTripsThroughGetOrCreate) {
  obs::MetricsRegistry src;
  src.counter("net.tx", lpc::Layer::kResource).add(17);
  src.gauge("env.temp", lpc::Layer::kEnvironment).set(21.5);
  src.histogram("mac.backoff", lpc::Layer::kPhysical, 0.0, 10.0, 5).add(3.0);

  snap::SectionWriter w(Time::zero());
  src.save(w);
  const std::vector<std::uint8_t> payload = w.take();

  // The destination already holds a cached handle; restore must write
  // through it, not invalidate it.
  obs::MetricsRegistry dst;
  obs::Counter& cached = dst.counter("net.tx", lpc::Layer::kResource);
  cached.add(999);
  snap::SectionReader r(payload, Time::zero());
  dst.restore(r);
  r.expect_end();

  EXPECT_EQ(cached.value(), 17u);
  const obs::Gauge* g = dst.find_gauge("env.temp");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value(), 21.5);
  const sim::Histogram* h = dst.find_histogram("mac.backoff");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
}

TEST(SnapObs, OpenSpansSurviveRestoreAnnotated) {
  sim::World w;
  obs::SpanTracer src;
  const obs::SpanId closed =
      src.begin(Time::sec(1.0), "setup", lpc::Layer::kAbstract, 0);
  src.end(closed, Time::sec(2.0));
  const obs::SpanId open =
      src.begin(Time::sec(3.0), "meeting", lpc::Layer::kAbstract, 0);
  ASSERT_NE(open, 0u);

  snap::SectionWriter sw(Time::sec(4.0));
  src.save(sw);
  const std::vector<std::uint8_t> payload = sw.take();

  obs::SpanTracer dst;
  snap::SectionReader sr(payload, Time::sec(4.0));
  dst.restore(sr);
  sr.expect_end();

  const obs::SpanRecord* rec = dst.find(open);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->open());
  ASSERT_EQ(rec->args.size(), 1u);
  EXPECT_EQ(rec->args[0].first, "restored");
  EXPECT_EQ(rec->args[0].second, "true");

  const obs::SpanRecord* done = dst.find(closed);
  ASSERT_NE(done, nullptr);
  EXPECT_FALSE(done->open());
  EXPECT_TRUE(done->args.empty());
}

// --- the room: end-to-end durability ---------------------------------------

using scn::ScenarioInstance;

const scn::Scenario& room_scenario() {
  static const scn::Scenario s = scn::decode(scn::compile_file(
      std::string(AROMA_SCENARIO_DIR) + "/smart_projector.scn"));
  return s;
}

constexpr scn::RunOptions kTelemetry{.telemetry = true};

// Flattens every non-snap metric into comparable strings. snap.* metrics
// are excluded: the interrupted run legitimately counts its checkpoint and
// restore activity there, the uninterrupted run has none.
struct MetricFlattener : obs::MetricsRegistry::Visitor {
  std::vector<std::string> lines;
  static bool skipped(const std::string& name) {
    return name.rfind("snap.", 0) == 0;
  }
  void on_counter(const obs::MetricInfo& i, const obs::Counter& c) override {
    if (!skipped(i.name)) {
      lines.push_back("c " + i.name + "=" + std::to_string(c.value()));
    }
  }
  void on_gauge(const obs::MetricInfo& i, const obs::Gauge& g) override {
    if (!skipped(i.name)) {
      lines.push_back("g " + i.name + "=" + std::to_string(g.value()));
    }
  }
  void on_histogram(const obs::MetricInfo& i,
                    const sim::Histogram& h) override {
    if (skipped(i.name)) return;
    std::string line = "h " + i.name + " =";
    for (std::size_t b = 0; b < h.bin_count(); ++b) {
      line += " " + std::to_string(h.bin(b));
    }
    lines.push_back(line);
  }
};

std::vector<std::string> flatten_metrics(ScenarioInstance& room) {
  MetricFlattener f;
  if (room.telemetry() != nullptr) {
    room.telemetry()->metrics().visit(f);
  }
  return f.lines;
}

constexpr std::size_t kShard = 1;  // one extra laptop: real contention

// The durability property: run(seed, N+M) == run(seed, N) -> checkpoint ->
// fresh process -> restore -> run(M), compared by behavioral fingerprint
// (kernel event count + radio + discovery + procedure + viewer chain) and
// by the entire metrics registry.
TEST(SnapRoom, CheckpointRestoreResumesBitIdentically) {
  const std::uint64_t seed = sim::shard_seed(20260806, kShard);

  // Reference: the uninterrupted run.
  ScenarioInstance ref(room_scenario(), kShard, seed, kTelemetry);
  ref.run();
  const std::uint64_t fp_ref = ref.fingerprint();
  const std::vector<std::string> metrics_ref = flatten_metrics(ref);
  ASSERT_FALSE(metrics_ref.empty());

  // Interrupted: checkpoint mid-meeting, then keep running to the end.
  ScenarioInstance live(room_scenario(), kShard, seed, kTelemetry);
  live.warmup();
  live.world().sim().run_until(Time::sec(50.0));
  snap::CheckpointManager cm(live.world(), live.registry());
  const snap::Checkpoint cp = cm.take();
  ASSERT_TRUE(cp.full());
  ASSERT_GT(cp.blob.size(), 0u);
  live.finish();
  EXPECT_EQ(live.fingerprint(), fp_ref)
      << "taking a checkpoint perturbed the observed run";

  // Restored: a fresh room resumes from the blob and must be
  // indistinguishable from the reference.
  ScenarioInstance resumed(room_scenario(), kShard, seed, kTelemetry);
  resumed.warmup();
  resumed.restore(cp.blob, Time::zero());
  EXPECT_EQ(resumed.world().now(), cp.captured_at);
  resumed.finish();
  EXPECT_EQ(resumed.fingerprint(), fp_ref);
  EXPECT_EQ(flatten_metrics(resumed), metrics_ref);
}

// The restored run's executed-event stream must be the captured run's
// continuation, event for event — checked with the replay harness.
TEST(SnapRoom, RestoredEventStreamMatchesReference) {
  const std::uint64_t seed = sim::shard_seed(99, kShard);

  ScenarioInstance live(room_scenario(), kShard, seed);
  live.warmup();
  live.world().sim().run_until(Time::sec(50.0));
  snap::CheckpointManager cm(live.world(), live.registry());
  const snap::Checkpoint cp = cm.take();

  snap::ReplayHarness expected;
  expected.attach(live.world().sim());
  live.finish();
  expected.detach(live.world().sim());

  ScenarioInstance resumed(room_scenario(), kShard, seed);
  resumed.warmup();
  resumed.restore(cp.blob, Time::zero());
  snap::ReplayHarness actual;
  actual.attach(resumed.world().sim());
  resumed.finish();
  actual.detach(resumed.world().sim());

  ASSERT_GT(expected.size(), 0u);
  EXPECT_EQ(expected.stream_hash(), actual.stream_hash());
  const snap::Divergence d =
      snap::ReplayHarness::first_divergence(expected, actual);
  EXPECT_FALSE(d.diverged)
      << "first divergence at event " << d.index << " of " << expected.size();
}

// Optional sections really are optional: a blob captured with telemetry
// restores into a build/room without it (OBSM/OBSS are skipped), and the
// behavioral fingerprint still matches a telemetry-free reference.
TEST(SnapRoom, TelemetrySectionsAreForwardSkippable) {
  const std::uint64_t seed = sim::shard_seed(424242, kShard);

  ScenarioInstance ref(room_scenario(), kShard, seed);
  ref.run();
  const std::uint64_t fp_ref = ref.fingerprint();

  ScenarioInstance live(room_scenario(), kShard, seed, kTelemetry);
  live.warmup();
  live.world().sim().run_until(Time::sec(50.0));
  snap::CheckpointManager cm(live.world(), live.registry());
  const snap::Checkpoint cp = cm.take();

  ScenarioInstance resumed(room_scenario(), kShard, seed);
  resumed.warmup();
  resumed.restore(cp.blob, Time::zero());
  resumed.finish();
  EXPECT_EQ(resumed.fingerprint(), fp_ref);
}

TEST(SnapRoom, CorruptedAndTruncatedBlobsRejectedBeforeMutation) {
  const std::uint64_t seed = sim::shard_seed(5, 0);
  ScenarioInstance live(room_scenario(), 0, seed);
  live.warmup();
  live.world().sim().run_until(Time::sec(50.0));
  snap::CheckpointManager cm(live.world(), live.registry());
  const snap::Checkpoint cp = cm.take();

  ScenarioInstance victim(room_scenario(), 0, seed);
  victim.warmup();
  const std::uint64_t executed_before = victim.world().sim().executed();

  std::vector<std::uint8_t> corrupt = cp.blob;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_THROW(victim.restore(corrupt, Time::zero()), snap::SnapError);

  std::vector<std::uint8_t> truncated(cp.blob.begin(),
                                      cp.blob.begin() +
                                          static_cast<long>(cp.blob.size() / 2));
  EXPECT_THROW(victim.restore(truncated, Time::zero()), snap::SnapError);
  // Framing damage is caught before the world moves: no settle step ran.
  EXPECT_EQ(victim.world().now(), victim.meeting_time());
  EXPECT_EQ(victim.world().sim().executed(), executed_before);
}

// --- checkpoint manager ----------------------------------------------------

TEST(CheckpointManager, IncrementalMaterializesToByteIdenticalFull) {
  const std::uint64_t seed = sim::shard_seed(31337, kShard);
  ScenarioInstance room(room_scenario(), kShard, seed);
  room.warmup();
  room.world().sim().run_until(Time::sec(48.0));

  snap::CheckpointManager cm(room.world(), room.registry());
  const snap::Checkpoint base = cm.take_full();
  room.world().sim().run_until(room.world().now() + Time::sec(1.0));
  const snap::Checkpoint incr = cm.take_incremental();
  ASSERT_FALSE(incr.full());
  EXPECT_EQ(incr.base, base.id);
  // Same quiescent instant, so a direct full must byte-match the overlay.
  const snap::Checkpoint full = cm.take_full();
  EXPECT_EQ(full.captured_at, incr.captured_at);

  EXPECT_LT(incr.blob.size(), full.blob.size());
  EXPECT_EQ(snap::CheckpointManager::materialize(base.blob, incr.blob),
            full.blob);

  // A bare incremental blob is not restorable on its own.
  ScenarioInstance victim(room_scenario(), kShard, seed);
  victim.warmup();
  EXPECT_THROW(victim.restore(incr.blob, Time::zero()), snap::SnapError);

  const snap::CheckpointStats& st = cm.stats();
  EXPECT_EQ(st.full_taken, 2u);
  EXPECT_EQ(st.incremental_taken, 1u);
  EXPECT_EQ(st.bytes_written,
            base.blob.size() + incr.blob.size() + full.blob.size());
}

TEST(CheckpointManager, CadenceAlternatesFullAndIncremental) {
  const std::uint64_t seed = sim::shard_seed(8, kShard);
  ScenarioInstance room(room_scenario(), kShard, seed);
  room.warmup();
  room.world().sim().run_until(Time::sec(46.0));

  snap::CheckpointManager::Options opts;
  opts.full_every = 4;
  snap::CheckpointManager cm(room.world(), room.registry(), opts);
  std::vector<bool> fulls;
  for (int i = 0; i < 8; ++i) {
    const snap::Checkpoint cp = cm.take();
    fulls.push_back(cp.full());
    room.world().sim().run_until(room.world().now() + Time::ms(250));
  }
  EXPECT_EQ(fulls, std::vector<bool>(
                       {true, false, false, false, true, false, false, false}));
}

}  // namespace

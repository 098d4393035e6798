// Tests for the scenario compiler: parser diagnostics (line/col), the pass
// pipeline (fold, train lowering, strategy classes), blob robustness
// (truncation, CRC damage, version/section mismatches), compile
// determinism (compile-twice, dump-recompile fixpoint), the cost model,
// the pinned goldens (smart_projector fleets and every library scenario's
// behaviour fingerprint, from scenarios/goldens.txt), the checkpoint ->
// restore -> resume differential over every library scenario, and
// scratch-buffer checkpoint serialization over every checkpointable one.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "phys/profile.hpp"
#include "scn/blob.hpp"
#include "scn/compiler.hpp"
#include "scn/cost.hpp"
#include "scn/golden.hpp"
#include "scn/parser.hpp"
#include "scn/passes.hpp"
#include "scn/runtime.hpp"
#include "sim/fleet.hpp"
#include "snap/format.hpp"
#include "snap/snapshot.hpp"
#include "user/faculties.hpp"

#ifndef AROMA_SCENARIO_DIR
#define AROMA_SCENARIO_DIR "scenarios"
#endif

namespace {

using namespace aroma;

const char* kMinimal = R"(
scenario t {
  topology 20 x 20;
  entity hub profile desktop_pc_with_radio at (1, 1);
  group nodes profile laptop count 4 at (2 + 2 * i, 5);
  registrar on hub;
  traffic ping from nodes to hub period 0.5 payload 16;
  phase settle 1;
  phase meeting 3;
  horizon 9;
  drain 1;
}
)";

// --- expressions -----------------------------------------------------------

TEST(ScnExpr, EvalShardIndexAndMod) {
  const scn::Scenario s = scn::parse(R"(
scenario e {
  topology 10 x 10;
  entity a profile laptop at (1 + shard % 3, 2 * i);
  horizon 5;
}
)");
  const scn::EntityDecl& a = s.entities[0];
  EXPECT_DOUBLE_EQ(scn::eval(*a.pos_x, {7, 0}), 2.0);  // 1 + 7 % 3
  EXPECT_DOUBLE_EQ(scn::eval(*a.pos_y, {0, 5}), 10.0);
}

TEST(ScnExpr, DivisionByZeroThrowsWithPosition) {
  const scn::Scenario s = scn::parse(R"(
scenario e {
  topology 10 x 10;
  entity a profile laptop at (1 / (shard - 1), 0);
  horizon 5;
}
)");
  // Non-constant denominator passes validation but must still be caught at
  // evaluation time, anchored at the operator.
  try {
    scn::eval(*s.entities[0].pos_x, {1, 0});
    FAIL() << "division by zero not detected";
  } catch (const scn::ScnError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_GT(e.col(), 0);
  }
}

// --- parser diagnostics ----------------------------------------------------

TEST(ScnParser, ErrorCarriesLineAndColumn) {
  const char* bad = R"(
scenario t {
  topology 20 x 20;
  entity hub profile at (1, 1);
  horizon 9;
}
)";
  try {
    scn::parse(bad, "bad.scn");
    FAIL() << "parse should have failed";
  } catch (const scn::ScnError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_GT(e.col(), 0);
    EXPECT_NE(std::string(e.what()).find("bad.scn:4:"), std::string::npos);
  }
}

TEST(ScnParser, MissingSemicolonDiagnostic) {
  try {
    scn::parse("scenario t {\n  topology 20 x 20\n  horizon 9;\n}\n", "m.scn");
    FAIL() << "parse should have failed";
  } catch (const scn::ScnError& e) {
    EXPECT_EQ(e.line(), 3);  // error surfaces at the token after the gap
    EXPECT_NE(std::string(e.what()).find("m.scn:"), std::string::npos);
  }
}

TEST(ScnValidate, UnknownEntityAnchorsAtReference) {
  const char* bad = R"(
scenario t {
  topology 20 x 20;
  entity hub profile desktop_pc_with_radio at (1, 1);
  registrar on ghost;
  horizon 9;
}
)";
  try {
    scn::compile(bad, "u.scn");
    FAIL() << "validation should have failed";
  } catch (const scn::ScnError& e) {
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
    EXPECT_EQ(e.line(), 5);
  }
}

TEST(ScnValidate, RejectsRadiolessProfileAndUnknownPersona) {
  EXPECT_THROW(scn::compile("scenario t {\n  topology 9 x 9;\n"
                            "  entity a profile pda at (1, 1);\n"
                            "  horizon 5;\n}\n"),
               scn::ScnError);
  EXPECT_THROW(
      scn::compile("scenario t {\n  topology 9 x 9;\n"
                   "  entity a profile laptop at (1, 1);\n"
                   "  registrar on a;\n"
                   "  goal discover actor a persona nobody;\n"
                   "  horizon 5;\n}\n"),
      scn::ScnError);
}

// --- passes ----------------------------------------------------------------

TEST(ScnPasses, FoldIsCountedAndIdempotent) {
  scn::Scenario s = scn::parse(
      "scenario f {\n  topology 9 x 9;\n"
      "  entity a profile laptop at (1 + 2, 2 * (3 + 1));\n"
      "  horizon 5 + 5;\n}\n");
  scn::run_passes(s);
  EXPECT_GT(s.folds, 0u);
  EXPECT_EQ(s.entities[0].pos_x->op, scn::ExprOp::kNum);
  EXPECT_DOUBLE_EQ(s.entities[0].pos_x->value, 3.0);
  EXPECT_DOUBLE_EQ(s.phases.horizon->value, 10.0);
  // Folding a folded tree eliminates nothing further.
  const std::uint32_t first = s.folds;
  s.folds = 0;
  scn::run_passes(s);
  EXPECT_EQ(s.folds, 0u);
  (void)first;
}

TEST(ScnPasses, TrainLoweringNeedsConstantPeriodAndCount) {
  scn::Scenario lowered = scn::parse(kMinimal);
  scn::run_passes(lowered);
  ASSERT_EQ(lowered.trains_lowered, 1u);
  EXPECT_TRUE(lowered.traffic[0].train_lowered);
  EXPECT_TRUE(lowered.strategy.kernel_trains);

  // A period staggered by `i` never shares timestamps: not lowered.
  scn::Scenario staggered = scn::parse(R"(
scenario t {
  topology 20 x 20;
  entity hub profile desktop_pc_with_radio at (1, 1);
  group nodes profile laptop count 4 at (2 + 2 * i, 5);
  registrar on hub;
  traffic ping from nodes to hub period 0.5 + 0.1 * i;
  horizon 9;
}
)");
  scn::run_passes(staggered);
  EXPECT_EQ(staggered.trains_lowered, 0u);
  EXPECT_FALSE(staggered.strategy.kernel_trains);
}

TEST(ScnPasses, StrategyClassesFromShardModuli) {
  scn::Scenario s = scn::parse(R"(
scenario t {
  topology 40 x 40;
  entity hub profile desktop_pc_with_radio at (1, 1);
  group a profile laptop count 1 + shard % 3 at (2 + 2 * i, 5);
  group b profile laptop count 1 + shard % 4 at (2 + 2 * i, 9);
  registrar on hub;
  horizon 9;
}
)");
  scn::run_passes(s);
  EXPECT_EQ(s.strategy.class_modulus, 12u);  // lcm(3, 4)
  ASSERT_EQ(s.strategy.class_cost.size(), 12u);
  // More members -> strictly higher estimated cost.
  EXPECT_GT(s.strategy.class_cost[11], s.strategy.class_cost[0]);
}

// --- blob ------------------------------------------------------------------

TEST(ScnBlob, RoundTripPreservesIR) {
  const std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  const scn::Scenario s = scn::decode(blob);
  EXPECT_EQ(s.name, "t");
  ASSERT_EQ(s.entities.size(), 2u);
  EXPECT_EQ(s.entities[1].name, "nodes");
  EXPECT_TRUE(s.entities[1].is_group);
  ASSERT_EQ(s.traffic.size(), 1u);
  EXPECT_TRUE(s.traffic[0].train_lowered);
  EXPECT_EQ(s.traffic[0].to.index, 0);
  EXPECT_TRUE(s.strategy.kernel_trains);
}

TEST(ScnBlob, RejectsTruncation) {
  std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{7},
                                 std::size_t{20}, blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<long>(keep));
    EXPECT_THROW(scn::decode(cut), scn::ScnError) << "kept " << keep;
  }
}

TEST(ScnBlob, RejectsCrcDamage) {
  std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  blob[blob.size() / 2] ^= 0x01;
  EXPECT_THROW(scn::decode(blob), scn::ScnError);
}

TEST(ScnBlob, RejectsVersionAndMagicMismatch) {
  std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  {
    std::vector<std::uint8_t> wrong = blob;
    wrong[8] += 1;  // version field (little-endian u32 at offset 8)
    EXPECT_THROW(scn::decode(wrong), scn::ScnError);
  }
  {
    std::vector<std::uint8_t> wrong = blob;
    wrong[0] ^= 0xff;
    EXPECT_THROW(scn::decode(wrong), scn::ScnError);
  }
}

TEST(ScnBlob, UnknownSectionOptionalSkippedRequiredRejected) {
  const std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  const snap::SnapReader reader(blob, scn::kScnMagic, scn::kScnVersion);
  const auto rebuild = [&](std::uint32_t flags) {
    snap::SnapWriter w;
    for (const snap::Section& s : reader.sections()) {
      w.add(s.tag, s.flags, s.payload);
    }
    w.add(snap::tag4("WAT?"), flags, {1, 2, 3});
    return w.finish(scn::kScnMagic, scn::kScnVersion);
  };
  // Optional unknown: forward-compat skip; the scenario still decodes.
  EXPECT_EQ(scn::decode(rebuild(snap::kSectionOptional)).name, "t");
  // Required unknown: hard reject.
  EXPECT_THROW(scn::decode(rebuild(0)), scn::ScnError);
}

TEST(ScnBlob, MissingRequiredSectionRejected) {
  const std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  const snap::SnapReader reader(blob, scn::kScnMagic, scn::kScnVersion);
  snap::SnapWriter w;
  for (const snap::Section& s : reader.sections()) {
    if (s.tag == scn::kTagPhases) continue;
    w.add(s.tag, s.flags, s.payload);
  }
  EXPECT_THROW(scn::decode(w.finish(scn::kScnMagic, scn::kScnVersion)),
               scn::ScnError);
}

// --- compile determinism ---------------------------------------------------

TEST(ScnCompiler, CompileTwiceIsByteIdentical) {
  EXPECT_EQ(scn::compile(kMinimal), scn::compile(kMinimal));
}

TEST(ScnCompiler, DumpRecompileIsAFixpoint) {
  const std::vector<std::uint8_t> blob1 = scn::compile(kMinimal);
  const std::vector<std::uint8_t> blob2 =
      scn::compile(scn::dump(scn::decode(blob1)));
  const std::vector<std::uint8_t> blob3 =
      scn::compile(scn::dump(scn::decode(blob2)));
  EXPECT_EQ(blob2, blob3);
  // And the canonical text itself is stable from the first round.
  EXPECT_EQ(scn::dump(scn::decode(blob2)), scn::dump(scn::decode(blob3)));
}

// --- cost model ------------------------------------------------------------

TEST(ScnCost, FromBenchJsonOverridesMeasuredCategories) {
  const std::string path = "scn_cost_test_tmp.json";
  {
    std::ofstream f(path);
    f << R"({"scenarios": [{"batching": {"per_category": [
          {"category": "timer", "executed": 1000, "wall_sec": 0.0001},
          {"category": "radio", "executed": 500, "wall_sec": 0.0002}
        ]}}]})";
  }
  const scn::CostModel m = scn::CostModel::from_bench_json(path);
  EXPECT_TRUE(m.measured);
  EXPECT_DOUBLE_EQ(m.weight("timer"), 100.0);  // 1e-4 s / 1e3 ev * 1e9
  EXPECT_DOUBLE_EQ(m.weight("radio"), 400.0);
  // Unmeasured categories keep defaults; unknown ones fall back to "other".
  EXPECT_EQ(m.weight("mac"), scn::CostModel::defaults().weight("mac"));
  EXPECT_EQ(m.weight("nonesuch"), m.weight("other"));
  std::remove(path.c_str());
}

TEST(ScnCost, MissingArtifactThrows) {
  EXPECT_THROW(scn::CostModel::from_bench_json("nope_does_not_exist.json"),
               scn::ScnError);
}

// --- preset lookups --------------------------------------------------------

TEST(ScnPresets, ProfileAndPersonaByName) {
  phys::DeviceProfile p;
  EXPECT_TRUE(phys::profiles::by_name("laptop", &p));
  EXPECT_TRUE(phys::profiles::by_name("pda", &p));
  EXPECT_FALSE(phys::profiles::by_name("toaster", &p));
  user::Faculties f;
  EXPECT_TRUE(user::personas::by_name("computer_scientist", &f));
  EXPECT_FALSE(user::personas::by_name("nobody", &f));
}

// --- runtime ---------------------------------------------------------------

TEST(ScnRuntime, TrainLoweringAbsorbsWithoutChangingDeterminism) {
  scn::CompileOptions off;
  off.fold = false;
  off.trains = false;
  off.strategy = false;
  const scn::Scenario on = scn::decode(scn::compile(kMinimal));
  const scn::Scenario ref = scn::decode(scn::compile(kMinimal, "<scn>", off));

  scn::ScenarioInstance a(on, 0, 42);
  a.run();
  EXPECT_GT(a.absorbed(), 0u);
  scn::ScenarioInstance a2(on, 0, 42);
  a2.run();
  EXPECT_EQ(a.fingerprint(), a2.fingerprint());

  scn::ScenarioInstance b(ref, 0, 42);
  b.run();
  EXPECT_EQ(b.absorbed(), 0u);
  scn::ScenarioInstance b2(ref, 0, 42);
  b2.run();
  EXPECT_EQ(b.fingerprint(), b2.fingerprint());

  EXPECT_GT(a.pings(), 0u);
  EXPECT_EQ(a.pings(), b.pings());
}

TEST(ScnRuntime, FleetFingerprintIndependentOfWorkers) {
  const scn::Scenario s = scn::decode(scn::compile(kMinimal));
  const scn::FleetResult one = scn::run_fleet(s, 5, 7, 1);
  const scn::FleetResult two = scn::run_fleet(s, 5, 7, 2);
  EXPECT_EQ(one.fleet_fp, two.fleet_fp);
  EXPECT_EQ(one.events, two.events);
  ASSERT_EQ(one.shard_fps.size(), 5u);
  EXPECT_EQ(one.fleet_fp, sim::fleet_fingerprint(one.shard_fps));
}

TEST(ScnRuntime, RunTwiceThrows) {
  const scn::Scenario s = scn::decode(scn::compile(kMinimal));
  scn::ScenarioInstance inst(s, 0, 1);
  inst.run();
  EXPECT_THROW(inst.run(), scn::ScnError);
}

// --- goldens ---------------------------------------------------------------

// Every golden lives in scenarios/goldens.txt (see scn/golden.hpp); the
// bench and the artifact checker read the same file.
const scn::Goldens& goldens() {
  static const scn::Goldens g =
      scn::read_goldens(std::string(AROMA_SCENARIO_DIR) + "/goldens.txt");
  return g;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// The compiled Smart Projector room at seed 2026: fleet fingerprints and
// executed-event totals, pinned.
TEST(ScnGolden, SmartProjectorFleetFingerprintsPinned) {
  const std::string path =
      std::string(AROMA_SCENARIO_DIR) + "/smart_projector.scn";
  const scn::Scenario s = scn::decode(scn::compile_file(path, {}));
  for (const std::size_t shards : {1, 8, 64}) {
    const scn::FleetGolden* g =
        goldens().fleet("smart_projector", 2026, shards);
    ASSERT_NE(g, nullptr) << "no fleet golden at " << shards << " shards";
    const scn::FleetResult r = scn::run_fleet(s, shards, 2026, 2);
    EXPECT_EQ(hex64(r.fleet_fp), hex64(g->fleet_fp)) << shards << " shards";
    EXPECT_EQ(r.events, g->events) << shards << " shards";
  }
}

TEST(ScnGolden, MalformedRecordThrowsTypedError) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "aroma_bad_goldens.txt")
          .string();
  for (const char* bad :
       {"shard stadium 2026 0 3d292f0faab19f39\n",       // no 0x
        "shard stadium 2026 0 0x3d292f0faab19f39 9\n",   // extra field
        "fleet smart_projector 2026 -1 0x3d292f0faab19f39 5\n",
        "fleet smart_projector 2026 1 0x3d292f0faab19f3z 5\n",
        "pin stadium 2026 0 0x3d292f0faab19f39\n"}) {
    std::ofstream(path) << "# header\n" << bad;
    EXPECT_THROW(scn::read_goldens(path), scn::ScnError) << bad;
  }
  std::ofstream(path) << "shard a 7 1 0x00000000000000ff  # note\n\n";
  const scn::Goldens g = scn::read_goldens(path);
  ASSERT_EQ(g.shards.size(), 1u);
  EXPECT_EQ(g.shards[0].fp, 0xffu);
  std::filesystem::remove(path);
  EXPECT_THROW(scn::read_goldens(path), scn::ScnError);
}

// --- checkpoint differential -----------------------------------------------

std::vector<std::string> library_scenarios() {
  std::vector<std::string> names;
  for (const auto& e :
       std::filesystem::directory_iterator(AROMA_SCENARIO_DIR)) {
    if (e.path().extension() == ".scn") names.push_back(e.path().stem());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// Library scenarios with no quiescent instant between the capture target
// and the horizon, and the core that blocks every instant. Such a scenario
// cannot be checkpointed; it must say so with a typed error that names the
// blocker, never silently skip.
//   * campus_mesh: the explorers sit beyond reliable range of their
//     registrar, so their discovery procedure is still retrying at the
//     horizon.
//   * stadium: fifty radios on one channel keep some MAC mid-exchange at
//     every millisecond boundary until the traffic stops.
const std::map<std::string, std::string> kNeverQuiescent = {
    {"campus_mesh", "procedure attempt in flight"},
    {"stadium", "mac "},
};

class ScnCheckpointDifferential
    : public ::testing::TestWithParam<std::string> {};

// run(seed) == warmup -> run to mid-meeting -> checkpoint -> finish, and
// == a fresh instance: warmup -> restore(blob) -> finish. Shard 1 so
// per-shard expressions (group counts, staggered periods) are live.
TEST_P(ScnCheckpointDifferential, CheckpointRestoreResumeMatchesUninterrupted) {
  const std::string name = GetParam();
  const scn::Scenario s = scn::decode(scn::compile_file(
      std::string(AROMA_SCENARIO_DIR) + "/" + name + ".scn", {}));
  constexpr std::size_t kShard = 1;
  const std::uint64_t seed = sim::shard_seed(2026, kShard);

  scn::ScenarioInstance ref(s, kShard, seed);
  ref.run();

  scn::ScenarioInstance live(s, kShard, seed);
  live.warmup();
  const sim::Time mid =
      live.meeting_time() + (live.horizon_time() - live.meeting_time()) / 2;
  live.world().sim().run_until(mid);
  const auto blocker = kNeverQuiescent.find(name);
  if (blocker != kNeverQuiescent.end()) {
    try {
      live.checkpoint();
      FAIL() << name << " reached a quiescent instant; drop it from "
             << "kNeverQuiescent";
    } catch (const snap::SnapError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("never reached a quiescent instant before its "
                          "horizon"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(blocker->second), std::string::npos) << what;
    }
    return;
  }
  const std::vector<std::uint8_t> blob = live.checkpoint();
  live.finish();
  EXPECT_EQ(live.fingerprint(), ref.fingerprint())
      << "taking a checkpoint perturbed the run";

  scn::ScenarioInstance resumed(s, kShard, seed);
  resumed.warmup();
  resumed.restore(blob, sim::Time::zero());
  resumed.finish();
  EXPECT_EQ(resumed.fingerprint(), ref.fingerprint());
  EXPECT_EQ(resumed.events(), ref.events());
  EXPECT_EQ(resumed.pings(), ref.pings());
}

INSTANTIATE_TEST_SUITE_P(
    Library, ScnCheckpointDifferential,
    ::testing::ValuesIn(library_scenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

class ScnShardGolden : public ::testing::TestWithParam<std::string> {};

// Each library scenario's shards 0 and 1 at seeds 2026 and 7, run to
// completion: the behaviour-digest fingerprint is pinned, so a change that
// alters any frame, delivery outcome, ping, registration, goal or viewer
// update fails here, while one that only saves kernel events does not.
TEST_P(ScnShardGolden, BehaviourFingerprintPinned) {
  const std::string name = GetParam();
  const scn::Scenario s = scn::decode(scn::compile_file(
      std::string(AROMA_SCENARIO_DIR) + "/" + name + ".scn", {}));
  for (const std::uint64_t seed : {2026, 7}) {
    for (const std::size_t shard : {0, 1}) {
      const auto& all = goldens().shards;
      const auto g = std::find_if(all.begin(), all.end(), [&](const auto& x) {
        return x.scenario == name && x.seed == seed && x.shard == shard;
      });
      scn::ScenarioInstance inst(s, shard, sim::shard_seed(seed, shard));
      inst.run();
      const std::string line = "shard " + name + " " + std::to_string(seed) +
                               " " + std::to_string(shard) + " " +
                               hex64(inst.fingerprint());
      if (g == all.end()) {
        ADD_FAILURE() << "no golden; measured: " << line;
        continue;
      }
      EXPECT_EQ(hex64(inst.fingerprint()), hex64(g->fp)) << line;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Library, ScnShardGolden, ::testing::ValuesIn(library_scenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

std::vector<std::string> checkpointable_scenarios() {
  std::vector<std::string> names = library_scenarios();
  std::erase_if(names, [](const std::string& n) {
    return kNeverQuiescent.contains(n);
  });
  return names;
}

class ScnCheckpointScratch : public ::testing::TestWithParam<std::string> {};

// checkpoint_into() streams through recycled buffers the way the fleet
// worker does: repeated captures into one scratch, across several instants,
// each equal byte for byte to save_all() at the same instant.
TEST_P(ScnCheckpointScratch, RepeatedCheckpointIntoMatchesSaveAll) {
  const scn::Scenario s = scn::decode(scn::compile_file(
      std::string(AROMA_SCENARIO_DIR) + "/" + GetParam() + ".scn", {}));
  constexpr std::size_t kShard = 1;
  scn::ScenarioInstance live(s, kShard, sim::shard_seed(2026, kShard));
  live.warmup();
  const sim::Time span = live.horizon_time() - live.meeting_time();
  snap::SaveScratch scratch;
  for (int quarter = 1; quarter <= 3; ++quarter) {
    live.world().sim().run_until(live.meeting_time() + span * quarter / 4);
    for (int repeat = 0; repeat < 2; ++repeat) {
      live.checkpoint_into(scratch);
      EXPECT_EQ(scratch.blob, live.registry().save_all(live.world().now()))
          << "quarter " << quarter << " repeat " << repeat;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Library, ScnCheckpointScratch,
    ::testing::ValuesIn(checkpointable_scenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(ScnCheckpoint, CheckpointBeforeWarmupThrows) {
  const scn::Scenario s = scn::decode(scn::compile(kMinimal));
  scn::ScenarioInstance inst(s, 0, 1);
  EXPECT_THROW(inst.checkpoint(), snap::SnapError);
}

}  // namespace

// Tests for the scenario compiler: parser diagnostics (line/col), the pass
// pipeline (fold, train lowering), blob robustness (truncation, CRC
// damage, version/section mismatches), compile determinism (compile-twice,
// dump-recompile fixpoint) and worker-count-independent fleet fingerprints
// over every library scenario, the runtime's range checks on shard-dependent
// values, the pinned goldens (smart_projector fleets and every library scenario's
// behaviour fingerprint, from scenarios/goldens.txt), the checkpoint ->
// restore -> resume differential over every library scenario plus one
// shared-laptop world, and scratch-buffer checkpoint serialization over
// every checkpointable one.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "phys/profile.hpp"
#include "scn/blob.hpp"
#include "scn/compiler.hpp"
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

std::vector<std::string> library_scenarios() {
  std::vector<std::string> names;
  for (const auto& e :
       std::filesystem::directory_iterator(AROMA_SCENARIO_DIR)) {
    if (e.path().extension() == ".scn") names.push_back(e.path().stem());
  }
  std::sort(names.begin(), names.end());
  return names;
}

scn::Scenario compile_library(const std::string& name) {
  return scn::decode(scn::compile_file(
      std::string(AROMA_SCENARIO_DIR) + "/" + name + ".scn", {}));
}

// kMinimal and the source text of every library scenario, by name.
std::vector<std::pair<std::string, std::string>> compile_inputs() {
  std::vector<std::pair<std::string, std::string>> inputs = {{"t", kMinimal}};
  for (const std::string& name : library_scenarios()) {
    std::ifstream in(std::string(AROMA_SCENARIO_DIR) + "/" + name + ".scn");
    inputs.emplace_back(name, std::string(std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>()));
  }
  return inputs;
}

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
  // The lowered flow turns the kernel's train batching on.
  scn::ScenarioInstance on(lowered, 0, 42);
  on.run();
  EXPECT_GT(on.absorbed(), 0u);

  // A period staggered by `i` never shares timestamps: not lowered, and
  // with no lowered flow the kernel absorbs nothing.
  scn::Scenario staggered = scn::parse(R"(
scenario t {
  topology 20 x 20;
  entity hub profile desktop_pc_with_radio at (1, 1);
  group nodes profile laptop count 4 at (2 + 2 * i, 5);
  registrar on hub;
  traffic ping from nodes to hub period 0.5 + 0.1 * i;
  phase settle 1;
  phase meeting 3;
  horizon 9;
}
)");
  scn::run_passes(staggered);
  EXPECT_EQ(staggered.trains_lowered, 0u);
  scn::ScenarioInstance off(staggered, 0, 42);
  off.run();
  EXPECT_GT(off.pings(), 0u);
  EXPECT_EQ(off.absorbed(), 0u);
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
  // The decoded train mark still turns on the kernel's train batching.
  scn::ScenarioInstance inst(s, 0, 42);
  inst.run();
  EXPECT_GT(inst.absorbed(), 0u);
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

// AROMSCEN shares the snapshot container's reader: a section count beyond
// what the blob can hold is a typed decode error, not an allocation failure.
TEST(ScnBlob, RejectsSectionCountBeyondBlob) {
  std::vector<std::uint8_t> blob(scn::kScnMagic, scn::kScnMagic + 8);
  for (const std::uint32_t v : {scn::kScnVersion, 0xFFFFFFFFu}) {
    for (int i = 0; i < 4; ++i) {
      blob.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  EXPECT_THROW(scn::decode(blob), scn::ScnError);
}

TEST(ScnBlob, RejectsCrcDamage) {
  std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  blob[blob.size() / 2] ^= 0x01;
  EXPECT_THROW(scn::decode(blob), scn::ScnError);
}

TEST(ScnBlob, RejectsVersionAndMagicMismatch) {
  std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  // Version field: little-endian u32 at offset 8. Version 1 blobs carried
  // a strategy section this reader no longer knows.
  for (const std::uint32_t version : {scn::kScnVersion + 1, 1u}) {
    std::vector<std::uint8_t> wrong = blob;
    for (int i = 0; i < 4; ++i) {
      wrong[8 + i] = static_cast<std::uint8_t>(version >> (8 * i));
    }
    EXPECT_THROW(scn::decode(wrong), scn::ScnError) << "version " << version;
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

// A blob whose framing and CRC are sound can still carry a scenario the
// compiler refuses. decode holds it to the compiler's validate pass: each
// mutant of a real library blob is re-encoded (so its CRC is re-sealed)
// and must be rejected with a typed error.
TEST(ScnBlob, CrcResealedInvalidScenarioRejected) {
  const std::vector<std::uint8_t> blob = scn::compile_file(
      std::string(AROMA_SCENARIO_DIR) + "/smart_projector.scn", {});
  EXPECT_EQ(scn::encode(scn::decode(blob)), blob);  // the unmutated control
  const auto rejects = [&blob](const char* what,
                               void (*mutate)(scn::Scenario&)) {
    scn::Scenario s = scn::decode(blob);
    mutate(s);
    EXPECT_THROW(scn::decode(scn::encode(s)), scn::ScnError) << what;
  };
  rejects("unknown persona", [](scn::Scenario& s) {
    ASSERT_FALSE(s.goals.empty());
    s.goals[0].persona = "nobody";
  });
  rejects("negative topology", [](scn::Scenario& s) { s.topo_w = -20.0; });
  rejects("unknown profile",
          [](scn::Scenario& s) { s.entities[0].profile = "toaster"; });
  rejects("duplicate entity name",
          [](scn::Scenario& s) { s.entities[1].name = s.entities[0].name; });
}

// --- compile determinism ---------------------------------------------------

TEST(ScnCompiler, CompileTwiceIsByteIdentical) {
  for (const auto& [name, text] : compile_inputs()) {
    const std::vector<std::uint8_t> blob = scn::compile(text, name);
    EXPECT_FALSE(blob.empty()) << name;
    EXPECT_EQ(blob, scn::compile(text, name)) << name;
  }
}

TEST(ScnCompiler, DumpRecompileIsAFixpoint) {
  for (const auto& [name, text] : compile_inputs()) {
    const std::vector<std::uint8_t> blob1 = scn::compile(text, name);
    const std::vector<std::uint8_t> blob2 =
        scn::compile(scn::dump(scn::decode(blob1)));
    const std::vector<std::uint8_t> blob3 =
        scn::compile(scn::dump(scn::decode(blob2)));
    EXPECT_EQ(blob2, blob3) << name;
    // And the canonical text itself is stable from the first round.
    EXPECT_EQ(scn::dump(scn::decode(blob2)), scn::dump(scn::decode(blob3)))
        << name;
  }
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
  scn::PassOptions off;
  off.fold = false;
  off.trains = false;
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
  // kMinimal with the full pipeline and as the passes-off reference.
  scn::PassOptions off;
  off.fold = false;
  off.trains = false;
  for (const scn::PassOptions& options : {scn::PassOptions{}, off}) {
    const scn::Scenario s =
        scn::decode(scn::compile(kMinimal, "<scn>", options));
    const scn::FleetResult one = scn::run_fleet(s, 5, 7, 1);
    const scn::FleetResult two = scn::run_fleet(s, 5, 7, 2);
    EXPECT_EQ(one.fleet_fp, two.fleet_fp);
    EXPECT_EQ(one.events, two.events);
    ASSERT_EQ(one.shard_fps.size(), 5u);
    EXPECT_EQ(one.fleet_fp, sim::fleet_fingerprint(one.shard_fps));
  }

  // Every library scenario, 4 shards on 1 and on 2 workers; each one
  // executes events and delivers pings.
  for (const std::string& name : library_scenarios()) {
    const scn::Scenario lib = compile_library(name);
    const scn::FleetResult a = scn::run_fleet(lib, 4, 2026, 1);
    const scn::FleetResult b = scn::run_fleet(lib, 4, 2026, 2);
    EXPECT_EQ(a.fleet_fp, b.fleet_fp) << name;
    EXPECT_EQ(a.events, b.events) << name;
    EXPECT_GT(a.events, 0u) << name;
    EXPECT_GT(a.pings, 0u) << name;
  }
}

TEST(ScnRuntime, RunTwiceThrows) {
  const scn::Scenario s = scn::decode(scn::compile(kMinimal));
  scn::ScenarioInstance inst(s, 0, 1);
  inst.run();
  EXPECT_THROW(inst.run(), scn::ScnError);
}

// validate checks constant values only. A shard-dependent value that
// evaluates out of range on some shard is held to the same rules when that
// shard is instantiated: construction throws a typed error naming the
// entity and the shard. Unchecked, a zero or negative period never
// returns from run(), and a huge count casts out of range.
TEST(ScnRuntime, ShardDependentValuesOutOfRangeThrow) {
  struct Case {
    std::string count, x, traffic, settle;
    std::size_t shard;  // the out-of-range one; 1 - shard is in range
    std::string names;  // the entity the error must name
  };
  const Case cases[] = {
      {"4", "2 + 2 * i", "period 0.5 * (shard % 2)", "1", 0, "'nodes'"},
      {"4", "2 + 2 * i", "period 0.5 - (shard % 2)", "1", 1, "'nodes'"},
      {"4", "2 + 2 * i", "period 0.5 payload 24 + 2000 * (shard % 2)", "1", 1,
       "'nodes'"},
      {"1 + 1e30 * (shard % 2)", "2 + 2 * i", "period 0.5", "1", 1, "'nodes'"},
      {"4", "2 + 2 * i + 20 * (shard % 2)", "period 0.5", "1", 1, "'nodes'"},
      {"4", "2 + 2 * i", "period 0.5", "1 + 5 * (shard % 2)", 1, "'t'"},
  };
  for (const Case& c : cases) {
    const scn::Scenario s = scn::decode(scn::compile(
        "scenario t {\n  topology 20 x 20;\n"
        "  entity hub profile desktop_pc_with_radio at (1, 1);\n"
        "  group nodes profile laptop count " + c.count + " at (" + c.x +
        ", 5);\n  registrar on hub;\n"
        "  traffic ping from nodes to hub " + c.traffic + ";\n"
        "  phase settle " + c.settle + ";\n  phase meeting 3;\n"
        "  horizon 9;\n}\n"));
    EXPECT_NO_THROW({ scn::ScenarioInstance ok(s, 1 - c.shard, 7); })
        << scn::dump(s);
    try {
      scn::ScenarioInstance bad(s, c.shard, 7);
      ADD_FAILURE() << "no error at shard " << c.shard << " for\n"
                    << scn::dump(s);
    } catch (const scn::ScnError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(c.names), std::string::npos) << msg;
      EXPECT_NE(msg.find("shard " + std::to_string(c.shard)),
                std::string::npos)
          << msg;
    }
  }
}

// --- goldens ---------------------------------------------------------------

// Every golden lives in scenarios/goldens.txt (see scn/golden.hpp);
// bench/fleet_bench.cpp and the artifact checker read the same file.
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

// Two present goals on one laptop, so the second goal's start-vnc-server
// step mutates a screen that may already be served. Not a library
// scenario: it rides along as one more input of the differential below.
// The long meeting lets the second goal's rejected acquire retries end
// before the capture target, so the world has a quiescent instant.
const char* kSharedLaptop = R"(
scenario shared_laptop {
  topology 50 x 50;
  entity hub profile desktop_pc_with_radio at (0, 12);
  entity adapter profile aroma_adapter at (0, 0);
  entity laptop profile laptop at (8, 0);
  registrar on hub;
  projector on adapter;
  display on laptop size 64 x 48 deck 3;
  goal present actor laptop persona computer_scientist;
  goal present actor laptop persona computer_scientist;
  traffic slides on laptop period 4.0;
  phase settle 3;
  phase meeting 90;
  horizon 120;
  drain 2;
}
)";

std::vector<std::string> differential_inputs() {
  std::vector<std::string> names = library_scenarios();
  names.push_back("shared_laptop");
  return names;
}

scn::Scenario load_input(const std::string& name) {
  if (name == "shared_laptop") return scn::decode(scn::compile(kSharedLaptop));
  return compile_library(name);
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
// per-shard expressions (group counts, staggered periods) are live. Every
// projected replica ends equal to its screen.
TEST_P(ScnCheckpointDifferential, CheckpointRestoreResumeMatchesUninterrupted) {
  const std::string name = GetParam();
  const scn::Scenario s = load_input(name);
  constexpr std::size_t kShard = 1;
  const std::uint64_t seed = sim::shard_seed(2026, kShard);

  scn::ScenarioInstance ref(s, kShard, seed);
  ref.run();
  EXPECT_TRUE(ref.replicas_converged());

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
  EXPECT_TRUE(resumed.replicas_converged());
}

INSTANTIATE_TEST_SUITE_P(
    Library, ScnCheckpointDifferential,
    ::testing::ValuesIn(differential_inputs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

class ScnShardGolden : public ::testing::TestWithParam<std::string> {};

// The scenarios behind perfbench's workloads. Their media resolve every
// link budget through the dense per-pair memo, never the uncached model.
const std::set<std::string> kPerfbenchScenarios = {
    "hospital_ward", "smart_projector", "stadium"};

// Each library scenario's shards 0 and 1 at seeds 2026 and 7, run to
// completion: the behaviour-digest fingerprint is pinned, so a change that
// alters any frame, delivery outcome, ping, registration, goal or viewer
// update fails here, while one that only saves kernel events does not.
// The perfbench scenarios' shard 0 at seed 2026 also pins that the radio
// medium's production path served them from its dense memo.
TEST_P(ScnShardGolden, BehaviourFingerprintPinned) {
  const std::string name = GetParam();
  const scn::Scenario s = compile_library(name);
  for (const std::uint64_t seed : {2026, 7}) {
    for (const std::size_t shard : {0, 1}) {
      const auto& all = goldens().shards;
      const auto g = std::find_if(all.begin(), all.end(), [&](const auto& x) {
        return x.scenario == name && x.seed == seed && x.shard == shard;
      });
      scn::ScenarioInstance inst(s, shard, sim::shard_seed(seed, shard));
      inst.run();
      if (seed == 2026 && shard == 0 && kPerfbenchScenarios.contains(name)) {
        const env::RadioMedium::BatchStats& bs =
            inst.environment().medium().batch_stats();
        EXPECT_EQ(bs.fallback_queries, 0u) << name;
        EXPECT_GT(bs.memo_hits, 0u) << name;
      }
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
// each equal byte for byte to a fresh-buffer checkpoint() at the same
// instant, and each a blob SnapReader parses with every registered section.
TEST_P(ScnCheckpointScratch, RepeatedCheckpointIntoMatchesSaveAll) {
  const scn::Scenario s = compile_library(GetParam());
  constexpr std::size_t kShard = 1;
  scn::ScenarioInstance live(s, kShard, sim::shard_seed(2026, kShard));
  live.warmup();
  const sim::Time span = live.horizon_time() - live.meeting_time();
  snap::SaveScratch scratch;
  for (int quarter = 1; quarter <= 3; ++quarter) {
    live.world().sim().run_until(live.meeting_time() + span * quarter / 4);
    for (int repeat = 0; repeat < 2; ++repeat) {
      SCOPED_TRACE("quarter " + std::to_string(quarter) + " repeat " +
                   std::to_string(repeat));
      live.checkpoint_into(scratch);
      const sim::Time captured_at = live.world().now();
      EXPECT_EQ(scratch.blob, live.checkpoint());
      EXPECT_EQ(live.world().now(), captured_at);
      const snap::SnapReader reader(scratch.blob);
      EXPECT_EQ(reader.sections().size(), live.registry().section_count());
      for (const auto& [tag, name] : live.registry().table()) {
        EXPECT_NE(reader.find(tag), nullptr) << name;
      }
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

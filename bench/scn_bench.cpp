// SCN — scenario compiler benchmark and self-gating checker.
//
// Exercises the full declarative pipeline (DSL text -> IR -> pass pipeline
// -> versioned blob -> fleet execution) and gates on the properties the
// compiler promises:
//
//  * goldens — scenarios/smart_projector.scn compiled and fleet-run at seed
//    2026 must land on the pinned fleet fingerprints and event counts of
//    scenarios/goldens.txt (the file tests/scn_test.cpp and the checker
//    read too) at every shard count checked,
//  * determinism — compiling the same source twice is byte-identical, and
//    dump -> recompile converges: after one canonicalizing round, further
//    dump/recompile rounds are byte-stable,
//  * trains — scenarios/stadium.scn (synchronized constant-period crowds)
//    compiled with the full pass pipeline must absorb events into kernel
//    trains (absorbed > 0) while the passes-off compile of the same source
//    absorbs none; each mode's fleet fingerprint must be identical across
//    worker counts,
//  * library — every scenarios/*.scn compiles, runs to completion with
//    pings delivered at several worker counts, and fingerprints are
//    worker-count-invariant.
//
// Wall time is not measured here: perfbench times the same runs. Output
// lands in BENCH_scn.json, every gate one record of the schema in
// bench/common.hpp. Exit status is nonzero when any gate fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "scn/blob.hpp"
#include "scn/compiler.hpp"
#include "scn/golden.hpp"
#include "scn/runtime.hpp"
#include "sim/fleet.hpp"

#ifndef AROMA_SCENARIO_DIR
#define AROMA_SCENARIO_DIR "scenarios"
#endif

namespace {

using namespace aroma;

using benchsup::hex64;

std::vector<std::size_t> parse_csv(const char* s) {
  std::vector<std::size_t> out;
  std::size_t v = 0;
  bool any = false;
  for (const char* p = s;; ++p) {
    if (*p >= '0' && *p <= '9') {
      v = v * 10 + static_cast<std::size_t>(*p - '0');
      any = true;
    } else if (*p == ',' || *p == '\0') {
      if (any) out.push_back(v);
      v = 0;
      any = false;
      if (*p == '\0') break;
    } else {
      std::fprintf(stderr, "bad number list: %s\n", s);
      std::exit(2);
    }
  }
  return out;
}

/// Seed of the pinned smart_projector fleet goldens (scenarios/goldens.txt).
constexpr std::uint64_t kGoldenSeed = 2026;

}  // namespace

int main(int argc, char** argv) {
  std::string scn_dir = AROMA_SCENARIO_DIR;
  std::string json_path = "BENCH_scn.json";
  std::uint64_t seed = 2026;
  std::vector<std::size_t> golden_shards = {1, 8, 64};
  std::size_t library_shards = 4;
  std::vector<std::size_t> library_workers = {1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scn-dir") == 0) {
      scn_dir = need("--scn-dir");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = need("--json");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--golden-shards") == 0) {
      golden_shards = parse_csv(need("--golden-shards"));
    } else if (std::strcmp(argv[i], "--library-shards") == 0) {
      library_shards = std::strtoull(need("--library-shards"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--library-workers") == 0) {
      library_workers = parse_csv(need("--library-workers"));
    } else {
      std::fprintf(stderr,
                   "usage: scn_bench [--scn-dir path] [--json path] "
                   "[--seed n] [--golden-shards n,n,...] "
                   "[--library-shards n] [--library-workers n,n,...]\n");
      return 2;
    }
  }
  if (golden_shards.empty() || library_workers.empty() ||
      library_shards == 0) {
    std::fprintf(stderr, "shard/worker lists must be non-empty\n");
    return 2;
  }
  scn::Goldens goldens;
  try {
    goldens = scn::read_goldens(scn_dir + "/goldens.txt");
  } catch (const scn::ScnError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  for (const std::size_t shards : golden_shards) {
    if (goldens.fleet("smart_projector", kGoldenSeed, shards) == nullptr) {
      std::fprintf(stderr, "no pinned smart_projector golden at %zu shards\n",
                   shards);
      return 2;
    }
  }

  benchsup::Gates gates;

  const scn::PassOptions full;
  scn::PassOptions off;
  off.fold = false;
  off.trains = false;

  const std::vector<std::string> library = {
      "smart_projector", "stadium",       "office_tower",
      "conference_hall", "hospital_ward", "campus_mesh"};

  std::printf("== SCN: scenario compiler, dir %s, seed %llu ==\n",
              scn_dir.c_str(), static_cast<unsigned long long>(seed));

  // --- Compile + determinism leg. ------------------------------------------
  benchsup::table_header("Compile (full pass pipeline)",
                         {"scenario", "bytes", "folds", "trains",
                          "twice-id", "dump-stable"});
  benchsup::Json compile_rows = benchsup::Json::array();
  std::vector<scn::Scenario> compiled;  // decoded IR, library order
  std::size_t errors = 0, nondeterministic = 0, unstable = 0, empty = 0,
              trains_mismatch = 0, lowered_total = 0;
  for (const std::string& name : library) {
    const std::string path = scn_dir + "/" + name + ".scn";
    try {
      const std::vector<std::uint8_t> blob1 = scn::compile_file(path, full);
      const std::vector<std::uint8_t> blob1b = scn::compile_file(path, full);
      const bool twice = blob1 == blob1b;
      // dump -> recompile is a fixpoint after one canonicalizing round: the
      // first round may change bytes (defaults made explicit, fold counters
      // reset), every later round must be byte-stable.
      const scn::Scenario ir1 = scn::decode(blob1);
      const std::vector<std::uint8_t> blob2 =
          scn::compile(scn::dump(ir1), name + ".dump1", full);
      const std::vector<std::uint8_t> blob3 =
          scn::compile(scn::dump(scn::decode(blob2)), name + ".dump2", full);
      const bool stable = blob2 == blob3;
      nondeterministic += twice ? 0 : 1;
      unstable += stable ? 0 : 1;
      empty += blob1.empty() ? 1 : 0;
      // The runtime batches trains exactly when some flow is lowered.
      trains_mismatch +=
          scn::kernel_trains(ir1) != (ir1.trains_lowered > 0) ? 1 : 0;
      lowered_total += ir1.trains_lowered;
      benchsup::table_row(
          name, static_cast<double>(blob1.size()),
          static_cast<double>(ir1.folds), static_cast<double>(ir1.trains_lowered),
          std::string(twice ? "yes" : "NO"), std::string(stable ? "yes" : "NO"));
      benchsup::Json row = benchsup::Json::object();
      row.set("scenario", name);
      row.set("blob_bytes", static_cast<std::uint64_t>(blob1.size()));
      row.set("folds", static_cast<std::uint64_t>(ir1.folds));
      row.set("trains_lowered", static_cast<std::uint64_t>(ir1.trains_lowered));
      row.set("kernel_trains", scn::kernel_trains(ir1));
      compile_rows.push(std::move(row));
      compiled.push_back(scn::decode(blob1));
    } catch (const scn::ScnError& e) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
      ++errors;
      compiled.emplace_back();  // placeholder; library leg skips empty IR
    }
  }
  gates.check("compile.errors", static_cast<double>(errors), benchsup::Op::kEq,
              0);
  gates.check("compile.twice_differs", static_cast<double>(nondeterministic),
              benchsup::Op::kEq, 0);
  gates.check("compile.dump_unstable", static_cast<double>(unstable),
              benchsup::Op::kEq, 0);
  gates.check("compile.empty_blobs", static_cast<double>(empty),
              benchsup::Op::kEq, 0);
  gates.check("compile.kernel_trains_mismatches",
              static_cast<double>(trains_mismatch), benchsup::Op::kEq, 0);
  gates.check("compile.trains_lowered", static_cast<double>(lowered_total),
              benchsup::Op::kGe, 1);

  // --- Golden leg: compiled smart_projector vs its pinned fingerprints. ---
  // Gated where scenarios/goldens.txt pins (seed, shards): every shard
  // count at seed 2026; any other seed reports the fleet fingerprints.
  benchsup::table_header("Goldens: compiled smart_projector",
                         {"shards", "events", "fingerprint"});
  if (!compiled[0].entities.empty()) {
    for (const std::size_t shards : golden_shards) {
      const scn::FleetResult r = scn::run_fleet(compiled[0], shards, seed, 1);
      if (const scn::FleetGolden* g =
              goldens.fleet(library[0], seed, shards))
        gates.golden(*g, r.fleet_fp, r.events);
      benchsup::table_row(static_cast<double>(shards),
                          static_cast<double>(r.events), hex64(r.fleet_fp));
    }
  }

  // --- Trains leg: stadium with the pipeline on vs off. --------------------
  // Pre-scheduled event trains are a pure scheduling-representation change;
  // each mode must be worker-count-invariant, the full pipeline must absorb,
  // and the passes-off reference must absorb nothing.
  benchsup::Json trains = benchsup::Json::object();
  {
    const std::size_t tr_shards = 2;
    const std::string path = scn_dir + "/stadium.scn";
    try {
      const scn::Scenario on = scn::decode(scn::compile_file(path, full));
      scn::Scenario off_ir = scn::decode(scn::compile_file(path, off));
      const scn::FleetResult on1 = scn::run_fleet(on, tr_shards, seed, 1);
      const scn::FleetResult on2 = scn::run_fleet(on, tr_shards, seed, 2);
      const scn::FleetResult off1 = scn::run_fleet(off_ir, tr_shards, seed, 1);
      const scn::FleetResult off2 = scn::run_fleet(off_ir, tr_shards, seed, 2);
      gates.equal("trains.full.fingerprint", {on1.fleet_fp, on2.fleet_fp});
      gates.equal("trains.passes_off.fingerprint",
                  {off1.fleet_fp, off2.fleet_fp});
      gates.check("trains.absorbed_full", static_cast<double>(on1.absorbed),
                  benchsup::Op::kGe, 1);
      gates.check("trains.absorbed_passes_off",
                  static_cast<double>(off1.absorbed), benchsup::Op::kEq, 0);
      const double ratio =
          on1.events > 0 ? static_cast<double>(on1.absorbed) /
                               static_cast<double>(on1.events)
                         : 0.0;
      benchsup::table_header("Train absorption (stadium, 2 shards)",
                             {"mode", "events", "absorbed", "abs/event"});
      benchsup::table_row(std::string("full"),
                          static_cast<double>(on1.events),
                          static_cast<double>(on1.absorbed), ratio);
      benchsup::table_row(std::string("passes-off"),
                          static_cast<double>(off1.events),
                          static_cast<double>(off1.absorbed), 0.0);
      trains.set("shards", static_cast<std::uint64_t>(tr_shards));
      trains.set("events_full", on1.events);
      trains.set("absorbed_full", on1.absorbed);
      trains.set("events_passes_off", off1.events);
      trains.set("absorbed_passes_off", off1.absorbed);
      trains.set("absorbed_per_event_full", ratio);
    } catch (const scn::ScnError& e) {
      gates.fail(std::string("trains leg: ") + e.what());
      trains.set("error", std::string(e.what()));
    }
  }

  // --- Library leg: every scenario, several worker counts. -----------------
  benchsup::table_header("Scenario library",
                         {"scenario", "shards", "events", "absorbed", "pings",
                          "goals-ok", "fingerprint"});
  benchsup::Json lib_runs = benchsup::Json::array();
  std::size_t silent = 0, run_errors = 0;
  for (std::size_t si = 0; si < library.size(); ++si) {
    const scn::Scenario& s = compiled[si];
    if (s.entities.empty()) continue;  // compile already failed and counted
    try {
      std::vector<std::uint64_t> fps;
      scn::FleetResult first;
      for (std::size_t wi = 0; wi < library_workers.size(); ++wi) {
        const scn::FleetResult r =
            scn::run_fleet(s, library_shards, seed, library_workers[wi]);
        if (wi == 0) first = r;
        fps.push_back(r.fleet_fp);
      }
      gates.equal("library." + library[si] + ".fingerprint", fps);
      silent += first.events == 0 || first.pings == 0 ? 1 : 0;
      benchsup::table_row(
          library[si], static_cast<double>(library_shards),
          static_cast<double>(first.events),
          static_cast<double>(first.absorbed),
          static_cast<double>(first.pings),
          static_cast<double>(first.goals_succeeded), hex64(first.fleet_fp));
      benchsup::Json row = benchsup::Json::object();
      row.set("scenario", library[si]);
      row.set("shards", static_cast<std::uint64_t>(library_shards));
      row.set("fleet_fingerprint", hex64(first.fleet_fp));
      row.set("events", first.events);
      row.set("absorbed", first.absorbed);
      row.set("pings", first.pings);
      row.set("goals_succeeded", first.goals_succeeded);
      lib_runs.push(std::move(row));
    } catch (const scn::ScnError& e) {
      std::fprintf(stderr, "%s run: %s\n", library[si].c_str(), e.what());
      ++run_errors;
    }
  }
  gates.check("library.run_errors", static_cast<double>(run_errors),
              benchsup::Op::kEq, 0);
  gates.check("library.silent_scenarios", static_cast<double>(silent),
              benchsup::Op::kEq, 0);

  benchsup::Json doc = benchsup::Json::object();
  doc.set("bench", "scn");
  doc.set("seed", seed);
  doc.set("compile", std::move(compile_rows));
  doc.set("trains", std::move(trains));
  {
    benchsup::Json lib = benchsup::Json::object();
    lib.set("shards", static_cast<std::uint64_t>(library_shards));
    benchsup::Json w = benchsup::Json::array();
    for (const std::size_t v : library_workers) {
      w.push(static_cast<std::uint64_t>(v));
    }
    lib.set("workers_checked", std::move(w));
    lib.set("runs", std::move(lib_runs));
    doc.set("library", std::move(lib));
  }
  return gates.finish(doc, json_path);
}

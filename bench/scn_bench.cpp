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
//  * library — every scenarios/*.scn compiles, runs to completion at
//    several worker counts, and fingerprints are worker-count-invariant.
//
// Output lands in BENCH_scn.json (schema in README.md, validated by
// scripts/check_bench_json.py). Exit status is nonzero when any gate fails.
#include <chrono>
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

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

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

struct TimedFleet {
  scn::FleetResult result;
  double wall_s = 0.0;
};

TimedFleet timed_fleet(const scn::Scenario& s, std::size_t shards,
                       std::uint64_t seed, std::size_t workers) {
  TimedFleet out;
  const auto t0 = std::chrono::steady_clock::now();
  out.result = scn::run_fleet(s, shards, seed, workers);
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scn_dir = AROMA_SCENARIO_DIR;
  std::string json_path = "BENCH_scn.json";
  std::string kernel_json = "BENCH_kernel.json";
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
    } else if (std::strcmp(argv[i], "--kernel-json") == 0) {
      kernel_json = need("--kernel-json");
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
                   "[--kernel-json path] [--seed n] [--golden-shards n,n,...] "
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

  bool ok = true;

  // Cost model: measured weights when a kernel bench artifact is present,
  // baked-in defaults otherwise. Either way the fingerprints below are
  // unaffected — the cost model only steers launch order.
  scn::CostModel cost = scn::CostModel::defaults();
  std::string cost_mode = "defaults";
  try {
    cost = scn::CostModel::from_bench_json(kernel_json);
    cost_mode = "measured";
  } catch (const scn::ScnError&) {
    // keep defaults
  }
  scn::CompileOptions full;
  full.cost = cost;
  scn::CompileOptions off;
  off.fold = false;
  off.trains = false;
  off.strategy = false;

  const std::vector<std::string> library = {
      "smart_projector", "stadium",       "office_tower",
      "conference_hall", "hospital_ward", "campus_mesh"};

  std::printf("== SCN: scenario compiler, dir %s, seed %llu ==\n",
              scn_dir.c_str(), static_cast<unsigned long long>(seed));

  // --- Compile + determinism leg. ------------------------------------------
  benchsup::table_header("Compile (full pass pipeline)",
                         {"scenario", "bytes", "folds", "trains", "classes",
                          "twice-id", "dump-stable"});
  benchsup::Json compile_rows = benchsup::Json::array();
  std::vector<scn::Scenario> compiled;  // decoded IR, library order
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
      if (!twice || !stable) {
        std::fprintf(stderr, "FAIL: %s compile determinism (twice=%d stable=%d)\n",
                     name.c_str(), twice ? 1 : 0, stable ? 1 : 0);
        ok = false;
      }
      benchsup::table_row(
          name, static_cast<double>(blob1.size()),
          static_cast<double>(ir1.folds), static_cast<double>(ir1.trains_lowered),
          static_cast<double>(ir1.strategy.class_modulus),
          std::string(twice ? "yes" : "NO"), std::string(stable ? "yes" : "NO"));
      benchsup::Json row = benchsup::Json::object();
      row.set("scenario", name);
      row.set("blob_bytes", static_cast<std::uint64_t>(blob1.size()));
      row.set("folds", static_cast<std::uint64_t>(ir1.folds));
      row.set("trains_lowered", static_cast<std::uint64_t>(ir1.trains_lowered));
      row.set("class_modulus",
              static_cast<std::uint64_t>(ir1.strategy.class_modulus));
      row.set("kernel_trains", ir1.strategy.kernel_trains);
      row.set("compile_twice_identical", twice);
      row.set("dump_recompile_stable", stable);
      compile_rows.push(std::move(row));
      compiled.push_back(scn::decode(blob1));
    } catch (const scn::ScnError& e) {
      std::fprintf(stderr, "FAIL: %s: %s\n", name.c_str(), e.what());
      ok = false;
      compiled.emplace_back();  // placeholder; library leg skips empty IR
      benchsup::Json row = benchsup::Json::object();
      row.set("scenario", name);
      row.set("error", std::string(e.what()));
      compile_rows.push(std::move(row));
    }
  }

  // --- Golden leg: compiled smart_projector vs its pinned fingerprints. ---
  // Gated at the golden seed only; any other seed reports the fleet
  // fingerprints without a reference.
  const bool golden_gated = seed == kGoldenSeed;
  benchsup::table_header("Goldens: compiled smart_projector",
                         {"shards", "events", "fingerprint", "golden", "match"});
  benchsup::Json golden_runs = benchsup::Json::array();
  bool golden_ok = !compiled[0].entities.empty();
  for (const std::size_t shards : golden_shards) {
    if (!golden_ok) break;
    const scn::FleetGolden& g =
        *goldens.fleet("smart_projector", kGoldenSeed, shards);
    const TimedFleet c = timed_fleet(compiled[0], shards, seed, 1);
    const bool match =
        c.result.fleet_fp == g.fleet_fp && c.result.events == g.events;
    if (golden_gated && !match) {
      std::fprintf(stderr,
                   "FAIL: golden drift at %zu shards (%s / %llu events vs "
                   "pinned %s / %llu)\n",
                   shards, hex64(c.result.fleet_fp).c_str(),
                   (unsigned long long)c.result.events,
                   hex64(g.fleet_fp).c_str(), (unsigned long long)g.events);
      golden_ok = false;
      ok = false;
    }
    benchsup::table_row(static_cast<double>(shards),
                        static_cast<double>(c.result.events),
                        hex64(c.result.fleet_fp), hex64(g.fleet_fp),
                        std::string(!golden_gated ? "-" : match ? "yes" : "NO"));
    benchsup::Json row = benchsup::Json::object();
    row.set("shards", static_cast<std::uint64_t>(shards));
    row.set("fingerprint", hex64(c.result.fleet_fp));
    row.set("events", c.result.events);
    row.set("golden_fingerprint", hex64(g.fleet_fp));
    row.set("golden_events", g.events);
    row.set("wall_s", c.wall_s);
    row.set("match", match);
    golden_runs.push(std::move(row));
  }

  // --- Trains leg: stadium with the pipeline on vs off. --------------------
  // Pre-scheduled event trains are a pure scheduling-representation change;
  // each mode must be worker-count-invariant, the full pipeline must absorb,
  // and the passes-off reference must absorb nothing.
  benchsup::Json trains = benchsup::Json::object();
  {
    const std::size_t tr_shards = 2;
    const std::string path = scn_dir + "/stadium.scn";
    bool trains_ok = true;
    try {
      const scn::Scenario on = scn::decode(scn::compile_file(path, full));
      scn::Scenario off_ir = scn::decode(scn::compile_file(path, off));
      const TimedFleet on1 = timed_fleet(on, tr_shards, seed, 1);
      const TimedFleet on2 = timed_fleet(on, tr_shards, seed, 2);
      const TimedFleet off1 = timed_fleet(off_ir, tr_shards, seed, 1);
      const TimedFleet off2 = timed_fleet(off_ir, tr_shards, seed, 2);
      const bool fp_on_stable = on1.result.fleet_fp == on2.result.fleet_fp;
      const bool fp_off_stable = off1.result.fleet_fp == off2.result.fleet_fp;
      const bool absorbs = on1.result.absorbed > 0;
      const bool off_clean = off1.result.absorbed == 0;
      trains_ok = fp_on_stable && fp_off_stable && absorbs && off_clean;
      if (!trains_ok) {
        std::fprintf(stderr,
                     "FAIL: trains leg (on-stable=%d off-stable=%d "
                     "absorbed_on=%llu absorbed_off=%llu)\n",
                     fp_on_stable ? 1 : 0, fp_off_stable ? 1 : 0,
                     (unsigned long long)on1.result.absorbed,
                     (unsigned long long)off1.result.absorbed);
        ok = false;
      }
      const double ratio =
          on1.result.events > 0
              ? static_cast<double>(on1.result.absorbed) /
                    static_cast<double>(on1.result.events)
              : 0.0;
      benchsup::table_header("Train absorption (stadium, 2 shards)",
                             {"mode", "events", "absorbed", "abs/event",
                              "fp-stable"});
      benchsup::table_row(std::string("full"),
                          static_cast<double>(on1.result.events),
                          static_cast<double>(on1.result.absorbed), ratio,
                          std::string(fp_on_stable ? "yes" : "NO"));
      benchsup::table_row(std::string("passes-off"),
                          static_cast<double>(off1.result.events),
                          static_cast<double>(off1.result.absorbed), 0.0,
                          std::string(fp_off_stable ? "yes" : "NO"));
      trains.set("shards", static_cast<std::uint64_t>(tr_shards));
      trains.set("events_full", on1.result.events);
      trains.set("absorbed_full", on1.result.absorbed);
      trains.set("events_passes_off", off1.result.events);
      trains.set("absorbed_passes_off", off1.result.absorbed);
      trains.set("absorbed_per_event_full", ratio);
      trains.set("fingerprint_stable_full", fp_on_stable);
      trains.set("fingerprint_stable_passes_off", fp_off_stable);
    } catch (const scn::ScnError& e) {
      std::fprintf(stderr, "FAIL: trains leg: %s\n", e.what());
      trains.set("error", std::string(e.what()));
      trains_ok = false;
      ok = false;
    }
    trains.set("ok", trains_ok);
  }

  // --- Library leg: every scenario, several worker counts. -----------------
  benchsup::table_header("Scenario library",
                         {"scenario", "shards", "events", "absorbed", "pings",
                          "goals-ok", "wall-s", "fp-stable", "fingerprint"});
  benchsup::Json lib_runs = benchsup::Json::array();
  bool library_ok = true;
  for (std::size_t si = 0; si < library.size(); ++si) {
    const scn::Scenario& s = compiled[si];
    if (s.entities.empty()) {
      library_ok = false;
      continue;  // compile already failed and reported
    }
    try {
      bool fp_stable = true;
      TimedFleet first;
      for (std::size_t wi = 0; wi < library_workers.size(); ++wi) {
        const TimedFleet r =
            timed_fleet(s, library_shards, seed, library_workers[wi]);
        if (wi == 0) {
          first = r;
        } else if (r.result.fleet_fp != first.result.fleet_fp) {
          fp_stable = false;
        }
      }
      if (!fp_stable) {
        std::fprintf(stderr, "FAIL: %s fingerprint drifts across workers\n",
                     library[si].c_str());
        library_ok = false;
        ok = false;
      }
      benchsup::table_row(
          library[si], static_cast<double>(library_shards),
          static_cast<double>(first.result.events),
          static_cast<double>(first.result.absorbed),
          static_cast<double>(first.result.pings),
          static_cast<double>(first.result.goals_succeeded), first.wall_s,
          std::string(fp_stable ? "yes" : "NO"),
          hex64(first.result.fleet_fp));
      benchsup::Json row = benchsup::Json::object();
      row.set("scenario", library[si]);
      row.set("shards", static_cast<std::uint64_t>(library_shards));
      row.set("fleet_fingerprint", hex64(first.result.fleet_fp));
      row.set("events", first.result.events);
      row.set("absorbed", first.result.absorbed);
      row.set("pings", first.result.pings);
      row.set("goals_succeeded", first.result.goals_succeeded);
      row.set("wall_s", first.wall_s);
      row.set("fingerprints_identical", fp_stable);
      lib_runs.push(std::move(row));
    } catch (const scn::ScnError& e) {
      std::fprintf(stderr, "FAIL: %s run: %s\n", library[si].c_str(),
                   e.what());
      library_ok = false;
      ok = false;
    }
  }

  benchsup::Json doc = benchsup::Json::object();
  doc.set("bench", "scn");
  doc.set("seed", seed);
  doc.set("cost_model", cost_mode);
  doc.set("compile", std::move(compile_rows));
  {
    benchsup::Json golden = benchsup::Json::object();
    golden.set("scenario", library[0]);
    golden.set("seed", kGoldenSeed);
    golden.set("gated", golden_gated);
    golden.set("runs", std::move(golden_runs));
    golden.set("ok", golden_ok);
    doc.set("golden", std::move(golden));
  }
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
    lib.set("ok", library_ok);
    doc.set("library", std::move(lib));
  }
  doc.set("ok", ok);
  if (!doc.write_file(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}

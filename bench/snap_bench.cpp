// SNAP — checkpoint/restore benchmark for durable worlds.
//
// The fleet engine (bench/fleet_bench.cpp) proves that shard k is a pure
// function of shard_seed(seed, k). This bench proves the stronger durable
// form on the compiled scenarios/smart_projector.scn: a shard can be
// checkpointed mid-meeting, its process thrown away, and a fresh process —
// running under a *different* worker count — can restore the blob and
// resume to a bit-identical fleet fingerprint. It reports:
//
//  * restore-then-resume equality per shard count: an uninterrupted
//    reference fleet, a checkpointed fleet (full checkpoint taken at
//    t=50 s, then resumed in-process), and a restored fleet (fresh
//    instances, warmup + restore(blob) under a different worker count)
//    must all land on the same fleet fingerprint,
//  * save/restore throughput (MB/s of blob serialized / deserialized).
//
// Output lands in BENCH_snap.json, every gate one record of the schema in
// bench/common.hpp. Exit status is nonzero when any fingerprint drifts
// (at seed 2026 the reference fleet must also land on its pinned golden)
// or a fleet wrote no checkpoint bytes.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "scn/blob.hpp"
#include "scn/compiler.hpp"
#include "scn/runtime.hpp"
#include "sim/fleet.hpp"
#include "sim/world.hpp"

#ifndef AROMA_SCENARIO_DIR
#define AROMA_SCENARIO_DIR "scenarios"
#endif

namespace benchsup = aroma::benchsup;

namespace {

using aroma::scn::ScenarioInstance;
using aroma::sim::Time;

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

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The mid-meeting capture target. Every shard's meeting runs at least
// 45..55 s, so 50 s is inside the steady state for all of them; the actual
// capture instant is the first quiescent point at or after it.
constexpr double kCheckpointAtSec = 50.0;

struct PassResult {
  std::uint64_t fleet_fp = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
};

// Uninterrupted reference fleet: warmup + finish, no checkpoint.
PassResult run_reference(const aroma::scn::Scenario& scn, std::size_t shards,
                         std::size_t workers, std::uint64_t seed) {
  std::vector<std::uint64_t> fps(shards, 0), events(shards, 0);
  const auto t0 = std::chrono::steady_clock::now();
  aroma::sim::WorkStealingPool::run(
      workers, shards, [&](std::size_t i, std::size_t) {
        ScenarioInstance room(scn, i, aroma::sim::shard_seed(seed, i));
        room.run();
        fps[i] = room.fingerprint();
        events[i] = room.events();
      });
  const double wall_s = seconds_since(t0);
  std::uint64_t total = 0;
  for (const std::uint64_t e : events) total += e;
  return {aroma::sim::fleet_fingerprint(fps), total, wall_s};
}

// Checkpointed fleet: full checkpoint at the capture target, then resume
// in-process to the end. Returns the per-shard blobs for the restore pass.
PassResult run_capture(const aroma::scn::Scenario& scn, std::size_t shards,
                       std::size_t workers, std::uint64_t seed,
                       std::vector<std::vector<std::uint8_t>>& blobs) {
  std::vector<std::uint64_t> fps(shards, 0);
  blobs.assign(shards, {});
  const auto t0 = std::chrono::steady_clock::now();
  aroma::sim::WorkStealingPool::run(
      workers, shards, [&](std::size_t i, std::size_t) {
        ScenarioInstance room(scn, i, aroma::sim::shard_seed(seed, i));
        room.warmup();
        room.world().sim().run_until(Time::sec(kCheckpointAtSec));
        blobs[i] = room.checkpoint();
        room.finish();
        fps[i] = room.fingerprint();
      });
  return {aroma::sim::fleet_fingerprint(fps), 0, seconds_since(t0)};
}

// Restored fleet: fresh instances (structural rebuild), overwrite from the
// blobs, resume to the end — under a different worker count.
PassResult run_restore(const aroma::scn::Scenario& scn, std::size_t shards,
                       std::size_t workers, std::uint64_t seed,
                       const std::vector<std::vector<std::uint8_t>>& blobs) {
  std::vector<std::uint64_t> fps(shards, 0);
  const auto t0 = std::chrono::steady_clock::now();
  aroma::sim::WorkStealingPool::run(
      workers, shards, [&](std::size_t i, std::size_t) {
        ScenarioInstance room(scn, i, aroma::sim::shard_seed(seed, i));
        room.warmup();
        room.restore(blobs[i], Time::sec(0.0));
        room.finish();
        fps[i] = room.fingerprint();
      });
  return {aroma::sim::fleet_fingerprint(fps), 0, seconds_since(t0)};
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> shard_counts = {1, 8, 64};
  std::uint64_t seed = 2026;
  std::string json_path = "BENCH_snap.json";
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--shards") == 0) {
      shard_counts = parse_csv(need("--shards"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = need("--json");
    } else {
      std::fprintf(stderr,
                   "usage: snap_bench [--shards n,n,...] [--seed n] "
                   "[--json path]\n");
      return 2;
    }
  }
  if (shard_counts.empty()) {
    std::fprintf(stderr, "--shards list is empty\n");
    return 2;
  }

  const std::size_t hw = aroma::sim::WorkStealingPool::hardware_workers();
  // The restore fleet must run under a different worker count than the
  // capture fleet to prove worker-count independence survives a restore.
  const std::size_t capture_workers = hw;
  const std::size_t restore_workers = hw > 1 ? hw - 1 : 2;
  std::printf("== SNAP: %zu-core host, seed %llu, checkpoint at %.1f s ==\n",
              hw, static_cast<unsigned long long>(seed), kCheckpointAtSec);
  benchsup::Gates gates;

  const std::string scn_path =
      std::string(AROMA_SCENARIO_DIR) + "/smart_projector.scn";
  aroma::scn::Scenario scn;
  aroma::scn::Goldens goldens;
  try {
    scn = aroma::scn::decode(aroma::scn::compile_file(scn_path));
    goldens = aroma::scn::read_goldens(std::string(AROMA_SCENARIO_DIR) +
                                       "/goldens.txt");
  } catch (const aroma::scn::ScnError& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }

  // --- Restore-then-resume equality sweep. --------------------------------
  benchsup::table_header(
      "Restore-then-resume equality",
      {"shards", "blob-KiB-avg", "fingerprint"});
  benchsup::Json runs = benchsup::Json::array();
  std::uint64_t min_blob_bytes = ~std::uint64_t{0};
  for (const std::size_t shards : shard_counts) {
    std::vector<std::vector<std::uint8_t>> blobs;
    const PassResult ref = run_reference(scn, shards, capture_workers, seed);
    const PassResult cap =
        run_capture(scn, shards, capture_workers, seed, blobs);
    const PassResult res =
        run_restore(scn, shards, restore_workers, seed, blobs);
    std::uint64_t blob_total = 0;
    for (const auto& b : blobs) blob_total += b.size();
    min_blob_bytes = std::min(min_blob_bytes, blob_total);
    const double blob_avg =
        static_cast<double>(blob_total) / static_cast<double>(shards);
    // Checkpointing must not perturb the run, and the restored fleet
    // (different worker count) must land on the reference fingerprint.
    gates.equal("fleet." + std::to_string(shards) + ".fingerprint",
                {ref.fleet_fp, cap.fleet_fp, res.fleet_fp});
    if (const aroma::scn::FleetGolden* g =
            goldens.fleet(scn.name, seed, shards))
      gates.golden(*g, ref.fleet_fp, ref.events);
    benchsup::table_row(static_cast<double>(shards), blob_avg / 1024.0,
                        hex64(ref.fleet_fp));
    benchsup::Json row = benchsup::Json::object();
    row.set("shards", static_cast<std::uint64_t>(shards));
    row.set("capture_workers", static_cast<std::uint64_t>(capture_workers));
    row.set("restore_workers", static_cast<std::uint64_t>(restore_workers));
    row.set("blob_bytes_total", blob_total);
    row.set("blob_bytes_avg", blob_avg);
    row.set("reference_wall_s", ref.wall_s);
    row.set("restore_wall_s", res.wall_s);
    row.set("reference_fingerprint", hex64(ref.fleet_fp));
    runs.push(std::move(row));
  }
  gates.check("min_blob_bytes", static_cast<double>(min_blob_bytes),
              benchsup::Op::kGe, 1);

  // --- Save / restore throughput. -----------------------------------------
  // One shard settled at the capture target; serialize and restore the same
  // state repeatedly and report blob MB/s. Restoring with a zero gap onto
  // the capture instant is idempotent, so every iteration does the full
  // parse + rebase + overwrite work.
  constexpr std::size_t kThroughputShard = 1;
  ScenarioInstance tp_room(scn, kThroughputShard,
                           aroma::sim::shard_seed(seed, kThroughputShard));
  tp_room.warmup();
  tp_room.world().sim().run_until(Time::sec(kCheckpointAtSec));
  const std::vector<std::uint8_t> tp_blob = tp_room.checkpoint();
  constexpr int kSaveIters = 64;
  constexpr int kRestoreIters = 32;
  const auto save_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSaveIters; ++i) {
    const std::vector<std::uint8_t> b = tp_room.checkpoint();
    if (b.size() != tp_blob.size()) std::abort();
  }
  const double save_s = seconds_since(save_t0);
  const auto restore_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRestoreIters; ++i) {
    tp_room.restore(tp_blob, Time::sec(0.0));
  }
  const double restore_s = seconds_since(restore_t0);
  const double save_mb_s =
      save_s > 0.0 ? static_cast<double>(tp_blob.size()) * kSaveIters /
                         save_s / 1e6
                   : 0.0;
  const double restore_mb_s =
      restore_s > 0.0 ? static_cast<double>(tp_blob.size()) * kRestoreIters /
                            restore_s / 1e6
                      : 0.0;
  benchsup::table_header("Blob throughput",
                         {"blob-B", "save-MB/s", "restore-MB/s"});
  benchsup::table_row(static_cast<double>(tp_blob.size()), save_mb_s,
                      restore_mb_s);

  // --- Machine-readable output. -------------------------------------------
  benchsup::Json doc = benchsup::Json::object();
  doc.set("bench", "snap");
  doc.set("seed", seed);
  doc.set("checkpoint_at_s", kCheckpointAtSec);
  doc.set("runs", std::move(runs));
  benchsup::Json tp = benchsup::Json::object();
  tp.set("blob_bytes", static_cast<std::uint64_t>(tp_blob.size()));
  tp.set("save_iters", static_cast<std::uint64_t>(kSaveIters));
  tp.set("save_mb_per_s", save_mb_s);
  tp.set("restore_iters", static_cast<std::uint64_t>(kRestoreIters));
  tp.set("restore_mb_per_s", restore_mb_s);
  doc.set("throughput", std::move(tp));
  return gates.finish(doc, json_path);
}

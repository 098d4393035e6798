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
//  * full-vs-incremental checkpoint sizes on the steady-state projector
//    workload at a sub-second cadence (the pixel section only churns on
//    slide flips, so incrementals must be at least --min-incr-ratio times
//    smaller than fulls), plus the materialize() chain check: overlaying
//    every incremental onto the base full must rebuild the byte-identical
//    full blob at the final instant,
//  * save/restore throughput (MB/s of blob serialized / deserialized).
//
// Output lands in BENCH_snap.json (schema documented in README.md and
// validated by scripts/check_bench_json.py). Exit status is nonzero when
// any fingerprint drifts, the incremental ratio misses the gate, or the
// incremental chain fails to materialize the full blob.
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
#include "snap/checkpoint.hpp"

#ifndef AROMA_SCENARIO_DIR
#define AROMA_SCENARIO_DIR "scenarios"
#endif

namespace benchsup = aroma::benchsup;

namespace {

using aroma::scn::ScenarioInstance;
using aroma::sim::Time;

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
  double wall_s = 0.0;
};

// Uninterrupted reference fleet: warmup + finish, no checkpoint.
PassResult run_reference(const aroma::scn::Scenario& scn, std::size_t shards,
                         std::size_t workers, std::uint64_t seed) {
  std::vector<std::uint64_t> fps(shards, 0);
  const auto t0 = std::chrono::steady_clock::now();
  aroma::sim::WorkStealingPool::run(
      workers, shards, [&](std::size_t i, std::size_t) {
        ScenarioInstance room(scn, i, aroma::sim::shard_seed(seed, i));
        room.run();
        fps[i] = room.fingerprint();
      });
  return {aroma::sim::fleet_fingerprint(fps), seconds_since(t0)};
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
        aroma::snap::CheckpointManager cm(room.world(), room.registry());
        blobs[i] = cm.take_full().blob;
        room.finish();
        fps[i] = room.fingerprint();
      });
  return {aroma::sim::fleet_fingerprint(fps), seconds_since(t0)};
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
  return {aroma::sim::fleet_fingerprint(fps), seconds_since(t0)};
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> shard_counts = {1, 8, 64};
  std::uint64_t seed = 2026;
  std::string json_path = "BENCH_snap.json";
  double min_incr_ratio = 2.0;
  double cadence_s = 0.25;
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
    } else if (std::strcmp(argv[i], "--min-incr-ratio") == 0) {
      min_incr_ratio = std::strtod(need("--min-incr-ratio"), nullptr);
    } else if (std::strcmp(argv[i], "--cadence") == 0) {
      cadence_s = std::strtod(need("--cadence"), nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: snap_bench [--shards n,n,...] [--seed n] "
                   "[--json path] [--min-incr-ratio x] [--cadence s]\n");
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
  bool ok = true;

  const std::string scn_path =
      std::string(AROMA_SCENARIO_DIR) + "/smart_projector.scn";
  aroma::scn::Scenario scn;
  try {
    scn = aroma::scn::decode(aroma::scn::compile_file(scn_path));
  } catch (const aroma::scn::ScnError& e) {
    std::fprintf(stderr, "FAIL: %s: %s\n", scn_path.c_str(), e.what());
    return 1;
  }

  // --- Restore-then-resume equality sweep. --------------------------------
  benchsup::table_header(
      "Restore-then-resume equality",
      {"shards", "blob-KiB-avg", "ckpt-match", "restore-match",
       "fingerprint"});
  benchsup::Json runs = benchsup::Json::array();
  bool fingerprints_match = true;
  for (const std::size_t shards : shard_counts) {
    std::vector<std::vector<std::uint8_t>> blobs;
    const PassResult ref = run_reference(scn, shards, capture_workers, seed);
    const PassResult cap =
        run_capture(scn, shards, capture_workers, seed, blobs);
    const PassResult res =
        run_restore(scn, shards, restore_workers, seed, blobs);
    std::uint64_t blob_total = 0;
    for (const auto& b : blobs) blob_total += b.size();
    const double blob_avg =
        static_cast<double>(blob_total) / static_cast<double>(shards);
    const bool cap_match = cap.fleet_fp == ref.fleet_fp;
    const bool res_match = res.fleet_fp == ref.fleet_fp;
    if (!cap_match) {
      std::fprintf(stderr,
                   "FAIL: checkpointing perturbed the run at shards=%zu "
                   "(%s vs reference %s)\n",
                   shards, hex64(cap.fleet_fp).c_str(),
                   hex64(ref.fleet_fp).c_str());
      fingerprints_match = false;
      ok = false;
    }
    if (!res_match) {
      std::fprintf(stderr,
                   "FAIL: restored fleet diverged at shards=%zu "
                   "(%s vs reference %s)\n",
                   shards, hex64(res.fleet_fp).c_str(),
                   hex64(ref.fleet_fp).c_str());
      fingerprints_match = false;
      ok = false;
    }
    benchsup::table_row(static_cast<double>(shards), blob_avg / 1024.0,
                        std::string(cap_match ? "yes" : "NO"),
                        std::string(res_match ? "yes" : "NO"),
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
    row.set("checkpointed_fingerprint", hex64(cap.fleet_fp));
    row.set("restored_fingerprint", hex64(res.fleet_fp));
    row.set("checkpoint_match", cap_match);
    row.set("restore_match", res_match);
    runs.push(std::move(row));
  }

  // --- Full vs incremental cadence. ---------------------------------------
  // One steady-state shard, checkpointed every `cadence_s`. The control
  // sections (RFB client state, stream timers) churn every damage poll;
  // the pixel section only churns when a slide flips (every 4 s), so the
  // dirty-section delta must shrink the average blob by at least the gate.
  constexpr std::size_t kCadenceShard = 1;
  constexpr int kCadenceCycles = 16;
  ScenarioInstance cadence_room(scn, kCadenceShard,
                                aroma::sim::shard_seed(seed, kCadenceShard));
  cadence_room.warmup();
  cadence_room.world().sim().run_until(Time::sec(46.0));
  aroma::snap::CheckpointManager::Options cadence_opts;
  cadence_opts.full_every = 1u << 30;  // never cycle back to full on its own
  aroma::snap::CheckpointManager cadence_cm(
      cadence_room.world(), cadence_room.registry(), cadence_opts);
  const aroma::snap::Checkpoint base_full = cadence_cm.take_full();
  std::vector<std::uint8_t> materialized = base_full.blob;
  std::uint64_t incr_total = 0, incr_max = 0;
  for (int c = 0; c < kCadenceCycles; ++c) {
    cadence_room.world().sim().run_until(cadence_room.world().now() +
                                         Time::sec(cadence_s));
    const aroma::snap::Checkpoint incr = cadence_cm.take_incremental();
    incr_total += incr.blob.size();
    incr_max = std::max<std::uint64_t>(incr_max, incr.blob.size());
    materialized = aroma::snap::CheckpointManager::materialize(
        materialized, incr.blob);
  }
  // The overlay chain must land on the byte-identical full blob for the
  // final instant (the shard is still at that instant: take it directly).
  const bool chain_ok = materialized == cadence_room.checkpoint();
  if (!chain_ok) {
    std::fprintf(stderr,
                 "FAIL: incremental chain does not materialize the full "
                 "checkpoint\n");
    ok = false;
  }
  const double incr_avg =
      static_cast<double>(incr_total) / kCadenceCycles;
  const double incr_ratio =
      incr_avg > 0.0 ? static_cast<double>(base_full.blob.size()) / incr_avg
                     : 0.0;
  const bool ratio_ok = incr_ratio >= min_incr_ratio;
  if (!ratio_ok) {
    std::fprintf(stderr,
                 "FAIL: incremental ratio %.2f < %.2f (full %zu B, "
                 "avg incremental %.0f B)\n",
                 incr_ratio, min_incr_ratio, base_full.blob.size(),
                 incr_avg);
    ok = false;
  }
  const aroma::snap::CheckpointStats& cstats = cadence_cm.stats();
  benchsup::table_header(
      "Checkpoint cadence (" + std::to_string(kCadenceCycles) +
          " cycles @ " + std::to_string(cadence_s) + " s)",
      {"full-B", "incr-avg-B", "incr-max-B", "ratio", "chain", "defer-steps"});
  benchsup::table_row(static_cast<double>(base_full.blob.size()), incr_avg,
                      static_cast<double>(incr_max), incr_ratio,
                      std::string(chain_ok ? "exact" : "BROKEN"),
                      static_cast<double>(cstats.deferral_steps));

  // --- Save / restore throughput. -----------------------------------------
  // The cadence shard sits at a quiescent instant; serialize and restore the
  // same state repeatedly and report blob MB/s. Restoring with a zero gap
  // onto the capture instant is idempotent, so every iteration does the
  // full parse + rebase + overwrite work.
  const std::vector<std::uint8_t> tp_blob = cadence_room.checkpoint();
  constexpr int kSaveIters = 64;
  constexpr int kRestoreIters = 32;
  const auto save_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSaveIters; ++i) {
    const std::vector<std::uint8_t> b = cadence_room.checkpoint();
    if (b.size() != tp_blob.size()) std::abort();
  }
  const double save_s = seconds_since(save_t0);
  const auto restore_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRestoreIters; ++i) {
    cadence_room.restore(tp_blob, Time::sec(0.0));
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
  doc.set("hw_workers", static_cast<std::uint64_t>(hw));
  doc.set("checkpoint_at_s", kCheckpointAtSec);
  doc.set("runs", std::move(runs));
  benchsup::Json incr = benchsup::Json::object();
  incr.set("cadence_s", cadence_s);
  incr.set("cycles", static_cast<std::uint64_t>(kCadenceCycles));
  incr.set("full_bytes", static_cast<std::uint64_t>(base_full.blob.size()));
  incr.set("incremental_bytes_avg", incr_avg);
  incr.set("incremental_bytes_max", incr_max);
  incr.set("ratio", incr_ratio);
  incr.set("min_ratio_gate", min_incr_ratio);
  incr.set("chain_materializes", chain_ok);
  incr.set("deferral_steps", cstats.deferral_steps);
  doc.set("incremental", std::move(incr));
  benchsup::Json tp = benchsup::Json::object();
  tp.set("blob_bytes", static_cast<std::uint64_t>(tp_blob.size()));
  tp.set("save_iters", static_cast<std::uint64_t>(kSaveIters));
  tp.set("save_mb_per_s", save_mb_s);
  tp.set("restore_iters", static_cast<std::uint64_t>(kRestoreIters));
  tp.set("restore_mb_per_s", restore_mb_s);
  doc.set("throughput", std::move(tp));
  benchsup::Json gates = benchsup::Json::object();
  gates.set("fingerprints_match", fingerprints_match);
  gates.set("incremental_ratio_ok", ratio_ok);
  gates.set("chain_materializes", chain_ok);
  doc.set("gates", std::move(gates));
  if (!doc.write_file(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}

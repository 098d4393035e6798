// FLEET — multi-world scaling benchmark for the fleet engine.
//
// The LPC model's unit of analysis is one room; production questions are
// about buildings. This bench runs N independent rooms ("shards"), each one
// shard of the compiled scenarios/smart_projector.scn — a full Environment
// -> Intentional stack: CSMA radios under contention, Jini discovery, the
// Smart Projector with a live RFB session, and a user agent running the
// documented procedure — across the work-stealing pool, and reports:
//
//  * aggregate throughput (events/s) per (shards, workers) point and the
//    scaling efficiency against a single worker,
//  * the fleet fingerprint at every worker count (must be bit-identical:
//    shard k is a pure function of shard_seed(seed, k)),
//  * the heap-allocation delta from the per-world arena (a global
//    operator new override counts every heap allocation in arena-on vs
//    arena-off runs of the same fleet, which must also fingerprint-match).
//
// The multi-process legs exercise src/fleet: this binary re-invoked as
// `--fleet-worker <fd>` is the worker (a genuinely separate address space,
// exec'd over /proc/self/exe), and the "proc" section reports
//
//  * scale-out — ~1M micro-rooms (256 shards x 4096 rooms) swept at 1/2/4/8
//    worker processes, gated on fingerprint equality with a straight
//    single-process run and across every worker count,
//  * proc equivalence — room shards with telemetry at 1 vs 2 workers (the
//    coordinator ships the compiled scenario to each worker once):
//    fingerprints, event totals, and the merged obs registry (HDR
//    percentiles included) must be bit-identical,
//  * migration — forced live migrations mid-run, latency p50/p99 from the
//    fleet.migration_ns HDR, fingerprint unchanged,
//  * recovery — a worker killed mid-run, its shards restored elsewhere from
//    the last streamed checkpoint: zero lost shards, fingerprint unchanged,
//  * zero-alloc — steady-state checkpoint streaming (MicroShard ->
//    SaveScratch -> Channel) asserted allocation-free via the operator-new
//    counter.
//
// Output lands in BENCH_fleet.json (schema documented in README.md and
// validated by scripts/check_bench_json.py). Exit status is nonzero when
// fingerprints drift across worker counts or between allocation modes, when
// any "proc" gate fails, or — on hardware with >= 4 cores — when 4-worker
// scaling efficiency falls below --min-efficiency (default 1.5).
// Single-core machines skip the efficiency gates (there is nothing to scale
// onto) but still enforce determinism.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/micro.hpp"
#include "fleet/wire.hpp"
#include "fleet/worker.hpp"
#include "obs/hdr.hpp"
#include "obs/metrics.hpp"
#include "snap/snapshot.hpp"
#include "scn/blob.hpp"
#include "scn/compiler.hpp"
#include "scn/runtime.hpp"
#include "sim/arena.hpp"
#include "sim/fleet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

// ---------------------------------------------------------------------------
// Global heap-allocation counter. Replacing operator new is how the arena's
// effect is measured from the outside: same fleet, arena on vs off, count
// every call that actually reached the heap. Relaxed atomics: we only ever
// read the counter between fleet runs, when all workers have joined.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

inline void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
inline void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t size = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size ? size : align)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace aroma;

// ---------------------------------------------------------------------------
// One room: the Smart Projector case study at fleet scale, compiled from
// scenarios/smart_projector.scn. Heterogeneous on purpose — shard k hosts
// k%5 extra laptops pinging the hub and runs a proportionally longer
// meeting, so static round-robin placement straggles and stealing has
// something to win.

struct RoomResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  sim::Arena::Stats arena;
};

RoomResult run_shard(const scn::Scenario& room, std::size_t shard_id,
                    std::uint64_t seed, bool use_arena) {
  scn::ScenarioInstance inst(room, shard_id, seed, {.use_arena = use_arena});
  inst.run();
  return {inst.fingerprint(), inst.events(), inst.world().arena().stats()};
}

// ---------------------------------------------------------------------------

struct FleetRun {
  std::size_t shards = 0;
  std::size_t workers = 0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t heap_allocs = 0;  // global operator new calls during the run
  sim::Arena::Stats arena;        // summed over shards
  sim::WorkStealingPool::Stats sched;
};

FleetRun run_fleet(const scn::Scenario& room, std::size_t shards,
                   std::size_t workers, std::uint64_t seed, bool use_arena) {
  sim::FleetEngine engine(workers);
  const std::uint64_t heap0 = g_heap_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<RoomResult> rooms = engine.run<RoomResult>(
      shards, seed, [&room, use_arena](const sim::ShardContext& ctx) {
        return run_shard(room, ctx.shard_id, ctx.seed, use_arena);
      });
  const auto t1 = std::chrono::steady_clock::now();

  FleetRun out;
  out.shards = shards;
  out.workers = engine.workers();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.heap_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - heap0;
  std::vector<std::uint64_t> fps;
  fps.reserve(rooms.size());
  for (const RoomResult& r : rooms) {
    out.events += r.events;
    fps.push_back(r.fingerprint);
    out.arena.allocations += r.arena.allocations;
    out.arena.recycled += r.arena.recycled;
    out.arena.heap_fallbacks += r.arena.heap_fallbacks;
    out.arena.bytes_requested += r.arena.bytes_requested;
    out.arena.chunks += r.arena.chunks;
    out.arena.chunk_bytes += r.arena.chunk_bytes;
  }
  out.fingerprint = sim::fleet_fingerprint(fps);
  out.sched = engine.last_stats();
  return out;
}

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

// ---------------------------------------------------------------------------
// Multi-process legs: this binary re-exec'd as its own worker.

/// Command line for exec-mode workers (the coordinator appends the fd).
std::vector<std::string> worker_argv() {
  return {"/proc/self/exe", "--fleet-worker"};
}

/// One coordinator run plus the observability the legs report on.
struct ProcRun {
  fleet::FleetReport report;
  double wall_s = 0.0;
  std::uint64_t mig_count = 0;   // fleet.migration_ns HDR
  std::uint64_t mig_p50_ns = 0;
  std::uint64_t mig_p99_ns = 0;
  std::size_t issues = 0;
  std::string merged_metrics_json;
};

ProcRun run_proc(const fleet::FleetOptions& options) {
  fleet::Coordinator coord(options);
  ProcRun out;
  const auto t0 = std::chrono::steady_clock::now();
  out.report = coord.run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (const obs::HdrHistogram* h =
          coord.fleet_metrics().find_hdr("fleet.migration_ns")) {
    out.mig_count = h->count();
    out.mig_p50_ns = h->p50();
    out.mig_p99_ns = h->p99();
  }
  out.issues = coord.issues().issues().size();
  out.merged_metrics_json = coord.merged_shard_metrics().to_json(2);
  return out;
}

/// The single-process reference: every micro shard run straight through in
/// this process, no checkpoints, no control plane. The multi-process fleet
/// must land on exactly this fingerprint whatever the worker count,
/// migration schedule, or kill pattern.
std::uint64_t straight_micro_fp(std::size_t shards, std::uint64_t seed,
                                std::uint32_t rooms,
                                std::uint64_t* events_out = nullptr) {
  std::vector<std::uint64_t> fps;
  fps.reserve(shards);
  std::uint64_t events = 0;
  for (std::size_t k = 0; k < shards; ++k) {
    fleet::MicroShard shard(k, sim::shard_seed(seed, k), rooms);
    shard.finish();
    fps.push_back(shard.fingerprint());
    events += shard.events();
  }
  if (events_out != nullptr) *events_out = events;
  return sim::fleet_fingerprint(fps);
}

fleet::FleetOptions micro_options(std::size_t workers, std::size_t shards,
                                  std::uint64_t seed, std::uint32_t rooms) {
  fleet::FleetOptions o;
  o.workers = workers;
  o.shards = shards;
  o.seed = seed;
  o.kind = fleet::ShardKind::kMicro;
  o.micro_rooms = rooms;
  o.worker_argv = worker_argv();
  // Generous: on an oversubscribed (or sanitized) host a busy worker can go
  // seconds between heartbeats; false watchdog positives would inject
  // recoveries the legs did not plan.
  o.heartbeat_timeout_ms = 20000;
  return o;
}

/// Steady-state checkpoint streaming must not touch the heap: MicroShard ->
/// SaveScratch -> Channel all recycle their buffers once warmed, and the
/// operator-new counter proves it from the outside.
struct ZeroAllocResult {
  std::uint64_t iterations = 0;
  std::uint64_t heap_allocs = 0;
  bool ok = false;
};

ZeroAllocResult run_zero_alloc_leg() {
  ZeroAllocResult out;
  fleet::MicroShard shard(0, 7, 2048);
  snap::SaveScratch scratch;
  const int null_fd = ::open("/dev/null", O_WRONLY);
  if (null_fd < 0) return out;
  fleet::Channel chan(null_fd);  // Channel owns and closes the fd
  sim::Time t = sim::Time::sec(45.0);
  const auto step = [&] {
    t = t + sim::Time::sec(0.125);
    shard.run_until(t);
    shard.checkpoint_into(scratch);
    chan.send(fleet::MsgType::kCheckpoint, [&](fleet::WireWriter& w) {
      w.u64(0);
      w.i64(shard.now().count());
      w.u64(1);
      w.bytes(scratch.blob);
    });
  };
  for (int i = 0; i < 4; ++i) step();  // warm every buffer to capacity
  constexpr std::uint64_t kIters = 64;
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < kIters; ++i) step();
  out.iterations = kIters;
  out.heap_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  out.ok = out.heap_allocs == 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode: the coordinator exec'd us over /proc/self/exe with the
  // control-plane fd as the final argument. Nothing else in this binary
  // runs — the child is pure src/fleet worker loop.
  if (argc >= 3 && std::strcmp(argv[1], "--fleet-worker") == 0) {
    return aroma::fleet::worker_main(std::atoi(argv[2]));
  }

  std::vector<std::size_t> shard_counts = {1, 8, 64, 256};
  std::uint64_t seed = 2026;
  std::string json_path = "BENCH_fleet.json";
  double min_efficiency = 1.5;
  std::size_t scale_shards = 256;
  std::uint32_t scale_rooms = 4096;
  std::vector<std::size_t> scale_workers = {1, 2, 4, 8};
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
    } else if (std::strcmp(argv[i], "--min-efficiency") == 0) {
      min_efficiency = std::strtod(need("--min-efficiency"), nullptr);
    } else if (std::strcmp(argv[i], "--scale-shards") == 0) {
      scale_shards = std::strtoull(need("--scale-shards"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--scale-rooms") == 0) {
      scale_rooms = static_cast<std::uint32_t>(
          std::strtoull(need("--scale-rooms"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--scale-workers") == 0) {
      scale_workers = parse_csv(need("--scale-workers"));
    } else {
      std::fprintf(stderr,
                   "usage: fleet_bench [--shards n,n,...] [--seed n] "
                   "[--json path] [--min-efficiency x] [--scale-shards n] "
                   "[--scale-rooms n] [--scale-workers n,n,...]\n"
                   "       fleet_bench --fleet-worker <fd>   (internal)\n");
      return 2;
    }
  }
  if (scale_shards == 0 || scale_rooms == 0 || scale_workers.empty()) {
    std::fprintf(stderr, "scale-out config must be non-empty\n");
    return 2;
  }
  if (shard_counts.empty()) {
    std::fprintf(stderr, "--shards list is empty\n");
    return 2;
  }

  const std::size_t hw = sim::WorkStealingPool::hardware_workers();
  const std::size_t max_shards =
      *std::max_element(shard_counts.begin(), shard_counts.end());
  std::printf("== FLEET: %zu-core host, seed %llu ==\n", hw,
              static_cast<unsigned long long>(seed));
  bool ok = true;

  const std::string room_path =
      std::string(AROMA_SCENARIO_DIR) + "/smart_projector.scn";
  std::vector<std::uint8_t> room_blob;
  scn::Scenario room;
  try {
    room_blob = scn::compile_file(room_path);
    room = scn::decode(room_blob);
  } catch (const scn::ScnError& e) {
    std::fprintf(stderr, "FAIL: %s: %s\n", room_path.c_str(), e.what());
    return 1;
  }

  // --- Allocation A/B: same fleet, arena off vs on. -----------------------
  const std::size_t ab_shards = max_shards < 8 ? max_shards : 8;
  const FleetRun heap_mode = run_fleet(room, ab_shards, 1, seed, false);
  const FleetRun arena_mode = run_fleet(room, ab_shards, 1, seed, true);
  const bool alloc_match = heap_mode.fingerprint == arena_mode.fingerprint;
  if (!alloc_match) {
    std::fprintf(stderr,
                 "FAIL: arena changed behavior (%s heap-mode vs %s)\n",
                 hex64(heap_mode.fingerprint).c_str(),
                 hex64(arena_mode.fingerprint).c_str());
    ok = false;
  }
  benchsup::table_header(
      "Arena allocation delta (" + std::to_string(ab_shards) + " shards)",
      {"mode", "heap-allocs", "arena-allocs", "recycled", "fingerprint"});
  benchsup::table_row(std::string("heap"),
                      static_cast<double>(heap_mode.heap_allocs), 0.0, 0.0,
                      hex64(heap_mode.fingerprint));
  benchsup::table_row(std::string("arena"),
                      static_cast<double>(arena_mode.heap_allocs),
                      static_cast<double>(arena_mode.arena.allocations),
                      static_cast<double>(arena_mode.arena.recycled),
                      hex64(arena_mode.fingerprint));

  // --- Scaling sweep. -----------------------------------------------------
  // Every shard count runs at every distinct worker count in {1, 2, 4, hw}:
  // the sweep measures scaling and doubles as the determinism check (each
  // (shards, workers) pair must reproduce the shards' fingerprint exactly).
  std::vector<std::size_t> worker_counts = {1, 2, 4, hw};
  std::sort(worker_counts.begin(), worker_counts.end());
  worker_counts.erase(
      std::unique(worker_counts.begin(), worker_counts.end()),
      worker_counts.end());

  benchsup::table_header("Fleet scaling",
                         {"shards", "workers", "wall-s", "events", "ev/s",
                          "eff-vs-1w", "steals", "fingerprint"});
  benchsup::Json runs = benchsup::Json::array();
  bool fingerprints_identical = true;
  for (const std::size_t shards : shard_counts) {
    double base_rate = 0.0;
    std::uint64_t expect_fp = 0;
    for (const std::size_t workers : worker_counts) {
      if (workers > shards && workers != 1) continue;  // clamp would repeat
      const FleetRun r = run_fleet(room, shards, workers, seed, true);
      const double rate =
          r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
      if (workers == 1) {
        base_rate = rate;
        expect_fp = r.fingerprint;
      } else if (r.fingerprint != expect_fp) {
        std::fprintf(stderr,
                     "FAIL: fingerprint drift at shards=%zu workers=%zu "
                     "(%s vs %s at 1 worker)\n",
                     shards, workers, hex64(r.fingerprint).c_str(),
                     hex64(expect_fp).c_str());
        fingerprints_identical = false;
        ok = false;
      }
      const double eff = base_rate > 0.0 ? rate / base_rate : 0.0;
      benchsup::table_row(static_cast<double>(shards),
                          static_cast<double>(r.workers), r.wall_s,
                          static_cast<double>(r.events), rate, eff,
                          static_cast<double>(r.sched.steals),
                          hex64(r.fingerprint));
      benchsup::Json row = benchsup::Json::object();
      row.set("shards", static_cast<std::uint64_t>(shards));
      row.set("workers", static_cast<std::uint64_t>(r.workers));
      row.set("wall_s", r.wall_s);
      row.set("events", r.events);
      row.set("events_per_s", rate);
      row.set("efficiency_vs_1_worker", eff);
      row.set("steals", r.sched.steals);
      row.set("stolen_tasks", r.sched.stolen_tasks);
      row.set("fleet_fingerprint", hex64(r.fingerprint));
      runs.push(std::move(row));

      // Efficiency gate: only meaningful where the hardware can actually
      // run 4 workers in parallel; a 1-core container still checks
      // determinism above.
      if (shards == max_shards && workers == 4 && hw >= 4 &&
          eff < min_efficiency) {
        std::fprintf(stderr,
                     "FAIL: scaling efficiency %.2f < %.2f at shards=%zu "
                     "workers=4\n",
                     eff, min_efficiency, shards);
        ok = false;
      }
    }
  }

  // --- Multi-process legs (src/fleet): scale-out, equivalence, migration,
  // recovery, zero-alloc. ----------------------------------------------------
  benchsup::Json proc = benchsup::Json::object();
  proc.set("mode", "exec");
  try {
    // Scale-out: ~1M micro-rooms across worker processes. No checkpoint
    // cadence — this leg measures pure shard throughput plus the fixed
    // control-plane overhead (assign/run/results/heartbeats).
    std::uint64_t straight_events = 0;
    const std::uint64_t straight_fp =
        straight_micro_fp(scale_shards, seed, scale_rooms, &straight_events);
    std::vector<std::size_t> sw = scale_workers;
    std::sort(sw.begin(), sw.end());
    sw.erase(std::unique(sw.begin(), sw.end()), sw.end());
    benchsup::table_header(
        "Scale-out (" + std::to_string(scale_shards) + " shards x " +
            std::to_string(scale_rooms) + " rooms = " +
            std::to_string(scale_shards * scale_rooms) + " rooms)",
        {"workers", "wall-s", "events", "ev/s", "eff-vs-1w", "ctl-bytes",
         "B/event", "fingerprint"});
    benchsup::Json scale_runs = benchsup::Json::array();
    bool scale_fps_identical = true;
    bool efficiency_ok = true;
    double scale_base_rate = 0.0;
    for (const std::size_t workers : sw) {
      if (workers == 0) continue;
      const ProcRun r =
          run_proc(micro_options(workers, scale_shards, seed, scale_rooms));
      const double rate = r.wall_s > 0.0
                              ? static_cast<double>(r.report.total_events) /
                                    r.wall_s
                              : 0.0;
      if (workers == sw.front()) scale_base_rate = rate;
      const double eff = scale_base_rate > 0.0 ? rate / scale_base_rate : 0.0;
      const double bytes_per_event =
          r.report.total_events > 0
              ? static_cast<double>(r.report.control_bytes) /
                    static_cast<double>(r.report.total_events)
              : 0.0;
      if (r.report.fleet_fp != straight_fp) {
        std::fprintf(stderr,
                     "FAIL: scale-out fingerprint drift at %zu workers "
                     "(%s vs single-process %s)\n",
                     workers, hex64(r.report.fleet_fp).c_str(),
                     hex64(straight_fp).c_str());
        scale_fps_identical = false;
        ok = false;
      }
      if (r.report.total_events != straight_events) {
        std::fprintf(stderr,
                     "FAIL: scale-out event-count drift at %zu workers\n",
                     workers);
        scale_fps_identical = false;
        ok = false;
      }
      benchsup::table_row(static_cast<double>(workers), r.wall_s,
                          static_cast<double>(r.report.total_events), rate,
                          eff, static_cast<double>(r.report.control_bytes),
                          bytes_per_event, hex64(r.report.fleet_fp));
      benchsup::Json row = benchsup::Json::object();
      row.set("workers", static_cast<std::uint64_t>(workers));
      row.set("wall_s", r.wall_s);
      row.set("events", r.report.total_events);
      row.set("events_per_s", rate);
      row.set("efficiency_vs_1_worker", eff);
      row.set("control_bytes", r.report.control_bytes);
      row.set("control_frames", r.report.control_frames);
      row.set("control_bytes_per_event", bytes_per_event);
      row.set("fleet_fingerprint", hex64(r.report.fleet_fp));
      scale_runs.push(std::move(row));
      // The scale-out efficiency gate: 4 worker processes must beat one by
      // min_efficiency where the hardware can actually run them.
      if (workers == 4 && hw >= 4 && eff < min_efficiency) {
        std::fprintf(stderr,
                     "FAIL: scale-out efficiency %.2f < %.2f at 4 workers\n",
                     eff, min_efficiency);
        efficiency_ok = false;
        ok = false;
      }
    }
    benchsup::Json scale = benchsup::Json::object();
    scale.set("shards", static_cast<std::uint64_t>(scale_shards));
    scale.set("rooms_per_shard", static_cast<std::uint64_t>(scale_rooms));
    scale.set("total_rooms",
              static_cast<std::uint64_t>(scale_shards) * scale_rooms);
    scale.set("single_process_fingerprint", hex64(straight_fp));
    scale.set("matches_single_process", scale_fps_identical);
    scale.set("fingerprints_identical", scale_fps_identical);
    scale.set("efficiency_gate_active", hw >= 4);
    scale.set("efficiency_ok", efficiency_ok);
    scale.set("runs", std::move(scale_runs));
    proc.set("scale_out", std::move(scale));

    // Proc equivalence: room shards with telemetry at 1 vs 2 workers. The
    // merged obs registry (counters, gauges, HDR percentiles) must be
    // bit-identical, not just the fingerprint.
    fleet::FleetOptions eq;
    eq.workers = 1;
    eq.shards = 2;
    eq.seed = seed;
    eq.kind = fleet::ShardKind::kRoom;
    eq.scenario = room_blob;
    eq.cadence_ns = sim::Time::sec(4.0).count();
    eq.telemetry = true;
    eq.worker_argv = worker_argv();
    eq.heartbeat_timeout_ms = 20000;
    const ProcRun eq1 = run_proc(eq);
    eq.workers = 2;
    const ProcRun eq2 = run_proc(eq);
    const bool eq_fp = eq1.report.fleet_fp == eq2.report.fleet_fp;
    const bool eq_events = eq1.report.total_events == eq2.report.total_events;
    const bool eq_metrics =
        eq1.merged_metrics_json == eq2.merged_metrics_json &&
        !eq1.merged_metrics_json.empty();
    if (!(eq_fp && eq_events && eq_metrics)) {
      std::fprintf(stderr,
                   "FAIL: 1-vs-2-worker equivalence (fp %d events %d "
                   "metrics %d)\n",
                   eq_fp ? 1 : 0, eq_events ? 1 : 0, eq_metrics ? 1 : 0);
      ok = false;
    }
    benchsup::Json equiv = benchsup::Json::object();
    equiv.set("shards", static_cast<std::uint64_t>(2));
    {
      benchsup::Json w = benchsup::Json::array();
      w.push(static_cast<std::uint64_t>(1));
      w.push(static_cast<std::uint64_t>(2));
      equiv.set("workers", std::move(w));
    }
    equiv.set("fleet_fingerprint", hex64(eq1.report.fleet_fp));
    equiv.set("fingerprint_match", eq_fp);
    equiv.set("events_match", eq_events);
    equiv.set("metrics_match", eq_metrics);
    equiv.set("checkpoints_streamed_1w", eq1.report.checkpoints_streamed);
    equiv.set("checkpoints_streamed_2w", eq2.report.checkpoints_streamed);
    proc.set("equivalence", std::move(equiv));

    // Live migration: quiesce hot shards on their owner mid-run, ship the
    // blob over the control plane, resume on the other worker. Latency is
    // kMigrateOut send -> kRestored ack, from the fleet.migration_ns HDR.
    const std::size_t mig_shards = 8;
    const std::uint32_t mig_rooms = 512;
    const std::uint64_t mig_straight_fp =
        straight_micro_fp(mig_shards, seed, mig_rooms);
    fleet::FleetOptions mig = micro_options(2, mig_shards, seed, mig_rooms);
    mig.cadence_ns = sim::Time::sec(2.0).count();
    mig.migrations = {{0, 1}, {3, 2}, {5, 1}};
    const ProcRun mr = run_proc(mig);
    const bool mig_fp_match = mr.report.fleet_fp == mig_straight_fp;
    const bool mig_all = mr.report.migrations == mig.migrations.size() &&
                         mr.mig_count == mr.report.migrations;
    if (!mig_fp_match || !mig_all) {
      std::fprintf(stderr,
                   "FAIL: migration leg (fp match %d, %llu/%zu migrations, "
                   "%llu latency samples)\n",
                   mig_fp_match ? 1 : 0,
                   (unsigned long long)mr.report.migrations,
                   mig.migrations.size(), (unsigned long long)mr.mig_count);
      ok = false;
    }
    const double mig_bytes_per_ckpt =
        mr.report.checkpoints_streamed > 0
            ? static_cast<double>(mr.report.control_bytes) /
                  static_cast<double>(mr.report.checkpoints_streamed)
            : 0.0;
    benchsup::table_header("Live migration (8 shards, 2 workers)",
                           {"migrations", "p50-us", "p99-us", "ckpts",
                            "ctl-bytes", "B/ckpt", "fp-match"});
    benchsup::table_row(static_cast<double>(mr.report.migrations),
                        static_cast<double>(mr.mig_p50_ns) / 1e3,
                        static_cast<double>(mr.mig_p99_ns) / 1e3,
                        static_cast<double>(mr.report.checkpoints_streamed),
                        static_cast<double>(mr.report.control_bytes),
                        mig_bytes_per_ckpt,
                        std::string(mig_fp_match ? "yes" : "NO"));
    benchsup::Json migj = benchsup::Json::object();
    migj.set("shards", static_cast<std::uint64_t>(mig_shards));
    migj.set("workers", static_cast<std::uint64_t>(2));
    migj.set("planned", static_cast<std::uint64_t>(mig.migrations.size()));
    migj.set("migrations", mr.report.migrations);
    {
      benchsup::Json lat = benchsup::Json::object();
      lat.set("count", mr.mig_count);
      lat.set("p50_ns", mr.mig_p50_ns);
      lat.set("p99_ns", mr.mig_p99_ns);
      migj.set("latency", std::move(lat));
    }
    migj.set("fingerprint_match", mig_fp_match);
    migj.set("checkpoints_streamed", mr.report.checkpoints_streamed);
    migj.set("control_bytes", mr.report.control_bytes);
    migj.set("control_bytes_per_checkpoint", mig_bytes_per_ckpt);
    proc.set("migration", std::move(migj));

    // Kill recovery: worker 1 _exits after its 3rd streamed checkpoint; the
    // coordinator restores its shards on survivors from the last cadenced
    // checkpoint. Zero lost shards, fingerprint unchanged.
    fleet::FleetOptions kill = micro_options(3, mig_shards, seed, mig_rooms);
    kill.cadence_ns = sim::Time::sec(2.0).count();
    kill.kill = fleet::KillPlan{1, 3, fleet::KillMode::kExit};
    const ProcRun kr = run_proc(kill);
    const bool kill_fp_match = kr.report.fleet_fp == mig_straight_fp;
    const bool kill_clean = kr.report.worker_deaths == 1 &&
                            kr.report.lost_shards == 0 && kr.issues >= 1;
    if (!kill_fp_match || !kill_clean) {
      std::fprintf(stderr,
                   "FAIL: recovery leg (fp match %d, deaths %llu, lost %zu, "
                   "issues %zu)\n",
                   kill_fp_match ? 1 : 0,
                   (unsigned long long)kr.report.worker_deaths,
                   kr.report.lost_shards, kr.issues);
      ok = false;
    }
    benchsup::table_header("Worker-kill recovery (8 shards, 3 workers)",
                           {"deaths", "lost", "recov-ms", "issues",
                            "fp-match"});
    benchsup::table_row(static_cast<double>(kr.report.worker_deaths),
                        static_cast<double>(kr.report.lost_shards),
                        kr.report.recovery_ms,
                        static_cast<double>(kr.issues),
                        std::string(kill_fp_match ? "yes" : "NO"));
    benchsup::Json recov = benchsup::Json::object();
    recov.set("shards", static_cast<std::uint64_t>(mig_shards));
    recov.set("workers", static_cast<std::uint64_t>(3));
    recov.set("killed_worker", static_cast<std::uint64_t>(1));
    recov.set("kill_mode", "exit");
    recov.set("worker_deaths", kr.report.worker_deaths);
    recov.set("lost_shards",
              static_cast<std::uint64_t>(kr.report.lost_shards));
    recov.set("recovery_ms", kr.report.recovery_ms);
    recov.set("issues_filed", static_cast<std::uint64_t>(kr.issues));
    recov.set("fingerprint_match", kill_fp_match);
    proc.set("recovery", std::move(recov));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: multi-process legs: %s\n", e.what());
    proc.set("error", std::string(e.what()));
    ok = false;
  }

  // Zero-alloc: steady-state checkpoint streaming through the recycled
  // scratch and channel buffers, measured by the global operator-new
  // counter.
  const ZeroAllocResult za = run_zero_alloc_leg();
  if (!za.ok) {
    std::fprintf(stderr,
                 "FAIL: checkpoint streaming allocated %llu times over %llu "
                 "steady-state iterations\n",
                 (unsigned long long)za.heap_allocs,
                 (unsigned long long)za.iterations);
    ok = false;
  }
  std::printf("\ncheckpoint streaming: %llu heap allocs over %llu "
              "steady-state iterations (%s)\n",
              (unsigned long long)za.heap_allocs,
              (unsigned long long)za.iterations, za.ok ? "ok" : "FAIL");
  {
    benchsup::Json zj = benchsup::Json::object();
    zj.set("iterations", za.iterations);
    zj.set("heap_allocs", za.heap_allocs);
    zj.set("ok", za.ok);
    proc.set("zero_alloc", std::move(zj));
  }

  benchsup::Json doc = benchsup::Json::object();
  doc.set("bench", "fleet");
  doc.set("seed", seed);
  doc.set("hw_workers", static_cast<std::uint64_t>(hw));
  doc.set("min_efficiency_gate", min_efficiency);
  doc.set("efficiency_gate_active", hw >= 4);
  benchsup::Json alloc = benchsup::Json::object();
  alloc.set("shards", static_cast<std::uint64_t>(ab_shards));
  alloc.set("heap_allocs_arena_off", heap_mode.heap_allocs);
  alloc.set("heap_allocs_arena_on", arena_mode.heap_allocs);
  alloc.set("arena_allocations", arena_mode.arena.allocations);
  alloc.set("arena_recycled", arena_mode.arena.recycled);
  alloc.set("arena_heap_fallbacks", arena_mode.arena.heap_fallbacks);
  alloc.set("arena_chunks", arena_mode.arena.chunks);
  alloc.set("fingerprint_match", alloc_match);
  doc.set("alloc", std::move(alloc));
  doc.set("runs", std::move(runs));
  benchsup::Json determinism = benchsup::Json::object();
  {
    benchsup::Json w = benchsup::Json::array();
    for (const std::size_t workers : worker_counts) {
      w.push(static_cast<std::uint64_t>(workers));
    }
    determinism.set("workers_checked", std::move(w));
  }
  determinism.set("fingerprints_identical", fingerprints_identical);
  doc.set("determinism", std::move(determinism));
  doc.set("proc", std::move(proc));
  if (!doc.write_file(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}

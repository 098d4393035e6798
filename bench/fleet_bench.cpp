// FLEET — multi-world scaling benchmark for the fleet engine.
//
// The LPC model's unit of analysis is one room; production questions are
// about buildings. This bench runs N independent rooms ("shards"), each one
// shard of the compiled scenarios/smart_projector.scn — a full Environment
// -> Intentional stack: CSMA radios under contention, Jini discovery, the
// Smart Projector with a live RFB session, and a user agent running the
// documented procedure — across the work-stealing pool, and reports:
//
//  * aggregate throughput (events/s) per (shards, workers) point (scaling
//    is read from the paired 4-worker efficiency gates below, not from
//    these single cold runs),
//  * the fleet fingerprint at every worker count (must be bit-identical:
//    shard k is a pure function of shard_seed(seed, k)),
//  * the heap-allocation delta from the per-world arena (a global
//    operator new override counts every heap allocation in arena-on vs
//    arena-off runs of the same fleet, which must also fingerprint-match).
//
// The multi-process legs exercise src/fleet: this binary re-invoked as
// `--fleet-worker <fd>` is the worker (a genuinely separate address space,
// exec'd over /proc/self/exe). The coordinator ships the compiled scenario
// to each worker once and every shard is one of its rooms. The "proc"
// section reports
//
//  * scale-out — 256 rooms (--scale-shards) swept at 1/2/4/8 worker
//    processes (--scale-workers), reported as rooms/s and gated on
//    fingerprint and event-count equality with the in-process
//    scn::run_fleet at every worker count,
//  * proc equivalence — rooms with telemetry at 1 vs 2 workers:
//    fingerprints, event totals, and the merged obs registry (HDR
//    percentiles included) must be bit-identical,
//  * migration — forced live migrations mid-run, latency p50/p99 from the
//    fleet.migration_ns HDR, fingerprint equal to scn::run_fleet,
//  * recovery — a worker killed mid-run, its shards restored elsewhere from
//    the last streamed checkpoint: zero lost shards, fingerprint equal to
//    scn::run_fleet,
//  * zero-alloc — a room's steady-state checkpoint streaming, through the
//    calls the worker makes (ScenarioInstance::checkpoint_into ->
//    SaveScratch -> Channel::send), asserted allocation-free via the
//    operator-new counter. The simulation between checkpoints allocates by
//    design; it is counted separately and not gated.
//
// Output lands in BENCH_fleet.json, every gate one record of the schema in
// bench/common.hpp. Exit status is nonzero when fingerprints drift across
// worker counts or between allocation modes, when any "proc" gate fails, or
// — on hardware with >= 4 cores — when 4 workers (threads in-process on a
// fixed 64-shard fleet, processes in the scale-out leg) fall below 1.5x
// one worker in the median of 7 interleaved 1-worker/4-worker pairs (the
// in-process gate runs last, its pairs follow one untimed warm-up pair and
// alternate which leg runs first).
// Smaller machines skip the efficiency gates (there is nothing to scale
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
// The nothrow forms (std::stable_sort's temporary buffer uses them) must be
// replaced too: their memory comes back through the operator delete below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
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
  std::vector<RoomResult> rooms(shards);
  const std::uint64_t heap0 = g_heap_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  const sim::WorkStealingPool::Stats sched = sim::WorkStealingPool::run(
      workers, shards, [&](std::size_t i, std::size_t) {
        rooms[i] = run_shard(room, i, sim::shard_seed(seed, i), use_arena);
      });
  const auto t1 = std::chrono::steady_clock::now();

  FleetRun out;
  out.shards = shards;
  out.workers = workers;
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
  out.sched = sched;
  return out;
}

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

fleet::FleetOptions room_options(std::size_t workers, std::size_t shards,
                                 std::uint64_t seed,
                                 const std::vector<std::uint8_t>& blob) {
  fleet::FleetOptions o;
  o.workers = workers;
  o.shards = shards;
  o.seed = seed;
  o.scenario = blob;
  o.worker_argv = worker_argv();
  // Generous: on an oversubscribed (or sanitized) host a busy worker can go
  // seconds between heartbeats; false watchdog positives would inject
  // recoveries the legs did not plan.
  o.heartbeat_timeout_ms = 20000;
  return o;
}

/// Steady-state checkpoint streaming must not touch the heap: a room
/// shard's checkpoint_into -> SaveScratch -> Channel::send, the worker's own
/// calls, recycle their buffers once warmed, and the operator-new counter
/// proves it from the outside. The simulation between checkpoints —
/// stepping to the cadence point, then settling to a quiescent instant —
/// allocates by design and is counted apart.
struct ZeroAllocResult {
  std::uint64_t iterations = 0;
  std::uint64_t heap_allocs = 0;      // checkpoint_into + send: gated at 0
  std::uint64_t sim_heap_allocs = 0;  // run_until + settle: not gated
};

ZeroAllocResult run_zero_alloc_leg(const scn::Scenario& room,
                                   std::uint64_t seed) {
  ZeroAllocResult out;
  scn::ScenarioInstance shard(room, 0, sim::shard_seed(seed, 0));
  shard.warmup();
  snap::SaveScratch scratch;
  const int null_fd = ::open("/dev/null", O_WRONLY);
  if (null_fd < 0) return out;
  fleet::Channel chan(null_fd);  // Channel owns and closes the fd
  sim::Time t = shard.meeting_time();
  const auto step = [&] {
    t = t + sim::Time::sec(0.125);
    const std::uint64_t h0 = g_heap_allocs.load(std::memory_order_relaxed);
    shard.world().sim().run_until(t);
    shard.settle();  // simulation: the checkpoint below settles no further
    const std::uint64_t h1 = g_heap_allocs.load(std::memory_order_relaxed);
    shard.checkpoint_into(scratch);
    chan.send(fleet::MsgType::kCheckpoint, [&](fleet::WireWriter& w) {
      w.u64(0);
      w.i64(shard.world().now().count());
      w.u64(1);
      w.bytes(scratch.blob);
    });
    const std::uint64_t h2 = g_heap_allocs.load(std::memory_order_relaxed);
    out.sim_heap_allocs += h1 - h0;
    out.heap_allocs += h2 - h1;
  };
  for (int i = 0; i < 4; ++i) step();  // warm every buffer to capacity
  out = ZeroAllocResult{};
  constexpr std::uint64_t kIters = 64;
  for (std::uint64_t i = 0; i < kIters; ++i) step();
  out.iterations = kIters;
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

  // Both efficiency gates: 4 workers (threads in-process, processes across
  // the control plane) must beat one by this much, in the median of
  // kGatePairs interleaved 1-worker/4-worker pairs. The in-process gate
  // runs on a fixed kGateShards fleet: at 8 shards the whole fleet takes
  // 3-7 ms and its pair quartiles straddle the threshold.
  constexpr double kMinEfficiency = 1.5;
  constexpr std::size_t kGateShards = 64;
  constexpr std::size_t kGateWorkers = 4;
  constexpr std::size_t kGatePairs = benchsup::Gates::kMinPairs;

  std::vector<std::size_t> shard_counts = {1, 8, 64, 256};
  std::uint64_t seed = 2026;
  std::string json_path = "BENCH_fleet.json";
  std::size_t scale_shards = 256;
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
    } else if (std::strcmp(argv[i], "--scale-shards") == 0) {
      scale_shards = std::strtoull(need("--scale-shards"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--scale-workers") == 0) {
      scale_workers = parse_csv(need("--scale-workers"));
    } else {
      std::fprintf(stderr,
                   "usage: fleet_bench [--shards n,n,...] [--seed n] "
                   "[--json path] [--scale-shards n] "
                   "[--scale-workers n,n,...]\n"
                   "       fleet_bench --fleet-worker <fd>   (internal)\n");
      return 2;
    }
  }
  if (scale_shards == 0 || scale_workers.empty()) {
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
  benchsup::Gates gates;

  const std::string room_path =
      std::string(AROMA_SCENARIO_DIR) + "/smart_projector.scn";
  std::vector<std::uint8_t> room_blob;
  scn::Scenario room;
  scn::Goldens goldens;
  try {
    room_blob = scn::compile_file(room_path);
    room = scn::decode(room_blob);
    goldens = scn::read_goldens(std::string(AROMA_SCENARIO_DIR) +
                                "/goldens.txt");
  } catch (const scn::ScnError& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }
  // Every fleet result at a pinned (seed, shard count) must land on it.
  const auto check_golden = [&](std::size_t shards, std::uint64_t fp,
                                std::uint64_t events) {
    if (const scn::FleetGolden* g = goldens.fleet(room.name, seed, shards))
      gates.golden(*g, fp, events);
  };
  std::uint64_t min_events = ~std::uint64_t{0};

  // --- Allocation A/B: same fleet, arena off vs on. -----------------------
  const std::size_t ab_shards = max_shards < 8 ? max_shards : 8;
  const FleetRun heap_mode = run_fleet(room, ab_shards, 1, seed, false);
  const FleetRun arena_mode = run_fleet(room, ab_shards, 1, seed, true);
  gates.equal("alloc.fingerprint",
              {heap_mode.fingerprint, arena_mode.fingerprint});
  gates.check("alloc.arena_allocations",
              static_cast<double>(arena_mode.arena.allocations),
              benchsup::Op::kGe, 1);
  gates.check("alloc.heap_allocs_saved",
              static_cast<double>(heap_mode.heap_allocs) -
                  static_cast<double>(arena_mode.heap_allocs),
              benchsup::Op::kGe, 1);
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
  // the sweep reports throughput and doubles as the determinism check (each
  // (shards, workers) pair must reproduce the shards' fingerprint exactly).
  std::vector<std::size_t> worker_counts = {1, 2, 4, hw};
  std::sort(worker_counts.begin(), worker_counts.end());
  worker_counts.erase(
      std::unique(worker_counts.begin(), worker_counts.end()),
      worker_counts.end());

  benchsup::table_header("Fleet scaling",
                         {"shards", "workers", "wall-s", "events", "ev/s",
                          "steals", "fingerprint"});
  benchsup::Json runs = benchsup::Json::array();
  for (const std::size_t shards : shard_counts) {
    std::vector<std::uint64_t> fps;
    for (const std::size_t workers : worker_counts) {
      if (workers > shards && workers != 1) continue;  // clamp would repeat
      const FleetRun r = run_fleet(room, shards, workers, seed, true);
      const double rate =
          r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
      if (workers == 1) check_golden(shards, r.fingerprint, r.events);
      fps.push_back(r.fingerprint);
      min_events = std::min(min_events, r.events);
      benchsup::table_row(static_cast<double>(shards),
                          static_cast<double>(r.workers), r.wall_s,
                          static_cast<double>(r.events), rate,
                          static_cast<double>(r.sched.steals),
                          hex64(r.fingerprint));
      benchsup::Json row = benchsup::Json::object();
      row.set("shards", static_cast<std::uint64_t>(shards));
      row.set("workers", static_cast<std::uint64_t>(r.workers));
      row.set("wall_s", r.wall_s);
      row.set("events", r.events);
      row.set("events_per_s", rate);
      row.set("steals", r.sched.steals);
      row.set("stolen_tasks", r.sched.stolen_tasks);
      row.set("fleet_fingerprint", hex64(r.fingerprint));
      runs.push(std::move(row));
    }
    if (fps.size() > 1)  // one shard runs at one worker count only
      gates.equal("sweep." + std::to_string(shards) + ".fingerprint", fps);
  }

  // The efficiency gates are timed only where the build and hardware can
  // run 4 workers in parallel.
  const bool timed = benchsup::Gates::cannot_time(true).empty();

  // --- Multi-process legs (src/fleet): scale-out, equivalence, migration,
  // recovery, zero-alloc. ----------------------------------------------------
  benchsup::Json proc = benchsup::Json::object();
  proc.set("mode", "exec");
  try {
    // Scale-out: rooms of the compiled scenario across worker processes.
    // No checkpoint cadence — this leg measures pure room throughput plus
    // the fixed control-plane overhead (scenario/assign/run/results/
    // heartbeats).
    const scn::FleetResult straight =
        scn::run_fleet(room, scale_shards, seed, hw);
    check_golden(scale_shards, straight.fleet_fp, straight.events);
    min_events = std::min(min_events, straight.events);
    std::vector<std::size_t> sw = scale_workers;
    std::sort(sw.begin(), sw.end());
    sw.erase(std::unique(sw.begin(), sw.end()), sw.end());
    benchsup::table_header(
        "Scale-out (" + std::to_string(scale_shards) + " " + room.name +
            " rooms)",
        {"workers", "wall-s", "events", "rooms/s", "ev/s", "ctl-bytes",
         "B/event", "fingerprint"});
    benchsup::Json scale_runs = benchsup::Json::array();
    std::vector<std::uint64_t> scale_fps = {straight.fleet_fp};
    std::size_t event_mismatches = 0;
    const auto scale_run = [&](std::size_t workers) {
      const ProcRun r =
          run_proc(room_options(workers, scale_shards, seed, room_blob));
      scale_fps.push_back(r.report.fleet_fp);
      event_mismatches += r.report.total_events != straight.events ? 1 : 0;
      return r;
    };
    for (const std::size_t workers : sw) {
      if (workers == 0) continue;
      const ProcRun r = scale_run(workers);
      const double rooms_per_s =
          r.wall_s > 0.0 ? static_cast<double>(scale_shards) / r.wall_s : 0.0;
      const double rate = r.wall_s > 0.0
                              ? static_cast<double>(r.report.total_events) /
                                    r.wall_s
                              : 0.0;
      const double bytes_per_event =
          r.report.total_events > 0
              ? static_cast<double>(r.report.control_bytes) /
                    static_cast<double>(r.report.total_events)
              : 0.0;
      benchsup::table_row(static_cast<double>(workers), r.wall_s,
                          static_cast<double>(r.report.total_events),
                          rooms_per_s, rate,
                          static_cast<double>(r.report.control_bytes),
                          bytes_per_event, hex64(r.report.fleet_fp));
      benchsup::Json row = benchsup::Json::object();
      row.set("workers", static_cast<std::uint64_t>(workers));
      row.set("wall_s", r.wall_s);
      row.set("events", r.report.total_events);
      row.set("rooms_per_s", rooms_per_s);
      row.set("events_per_s", rate);
      row.set("control_bytes", r.report.control_bytes);
      row.set("control_frames", r.report.control_frames);
      row.set("control_bytes_per_event", bytes_per_event);
      row.set("fleet_fingerprint", hex64(r.report.fleet_fp));
      scale_runs.push(std::move(row));
    }
    // The scale-out efficiency gate: 4 worker processes against one, as
    // interleaved pairs like the in-process gate, run when --scale-workers
    // asks for 4 workers.
    const bool gate_requested =
        std::find(sw.begin(), sw.end(), kGateWorkers) != sw.end();
    if (gate_requested && timed) {
      std::vector<double> ratios;
      for (std::size_t p = 0; p < kGatePairs; ++p) {
        const ProcRun one = scale_run(1);
        const ProcRun four = scale_run(kGateWorkers);
        ratios.push_back(four.wall_s > 0.0 ? one.wall_s / four.wall_s : 0.0);
      }
      gates.timing("scale_out.efficiency_4w", ratios, benchsup::Op::kGe,
                   kMinEfficiency, true);
    } else {
      gates.skip("scale_out.efficiency_4w", benchsup::Op::kGe,
                 kMinEfficiency,
                 gate_requested ? benchsup::Gates::cannot_time(true)
                                : "--scale-workers does not list " +
                                      std::to_string(kGateWorkers));
    }
    gates.equal("scale_out.fingerprint", scale_fps);
    gates.check("scale_out.event_mismatches",
                static_cast<double>(event_mismatches), benchsup::Op::kEq, 0);
    benchsup::Json scale = benchsup::Json::object();
    scale.set("scenario", room.name);
    scale.set("shards", static_cast<std::uint64_t>(scale_shards));
    scale.set("single_process_fingerprint", hex64(straight.fleet_fp));
    scale.set("single_process_events", straight.events);
    scale.set("runs", std::move(scale_runs));
    proc.set("scale_out", std::move(scale));

    // Proc equivalence: room shards with telemetry at 1 vs 2 workers. The
    // merged obs registry (counters, gauges, HDR percentiles) must be
    // bit-identical, not just the fingerprint.
    fleet::FleetOptions eq = room_options(1, 2, seed, room_blob);
    eq.cadence_ns = sim::Time::sec(4.0).count();
    eq.telemetry = true;
    const ProcRun eq1 = run_proc(eq);
    eq.workers = 2;
    const ProcRun eq2 = run_proc(eq);
    gates.equal("equivalence.fingerprint",
                {eq1.report.fleet_fp, eq2.report.fleet_fp});
    gates.check("equivalence.events_equal",
                eq1.report.total_events == eq2.report.total_events ? 1 : 0,
                benchsup::Op::kEq, 1);
    gates.check("equivalence.metrics_equal",
                eq1.merged_metrics_json == eq2.merged_metrics_json &&
                        !eq1.merged_metrics_json.empty()
                    ? 1
                    : 0,
                benchsup::Op::kEq, 1);
    benchsup::Json equiv = benchsup::Json::object();
    equiv.set("shards", static_cast<std::uint64_t>(2));
    {
      benchsup::Json w = benchsup::Json::array();
      w.push(static_cast<std::uint64_t>(1));
      w.push(static_cast<std::uint64_t>(2));
      equiv.set("workers", std::move(w));
    }
    equiv.set("fleet_fingerprint", hex64(eq1.report.fleet_fp));
    equiv.set("checkpoints_streamed_1w", eq1.report.checkpoints_streamed);
    equiv.set("checkpoints_streamed_2w", eq2.report.checkpoints_streamed);
    proc.set("equivalence", std::move(equiv));

    // Live migration: quiesce hot shards on their owner mid-run, ship the
    // blob over the control plane, resume on the other worker. Latency is
    // kMigrateOut send -> kRestored ack, from the fleet.migration_ns HDR.
    const std::size_t mig_shards = 8;
    const std::uint64_t mig_straight_fp =
        scn::run_fleet(room, mig_shards, seed, hw).fleet_fp;
    fleet::FleetOptions mig = room_options(2, mig_shards, seed, room_blob);
    mig.cadence_ns = sim::Time::sec(2.0).count();
    mig.migrations = {{0, 1}, {3, 2}, {5, 1}};
    const double planned = static_cast<double>(mig.migrations.size());
    const ProcRun mr = run_proc(mig);
    gates.equal("migration.fingerprint", {mig_straight_fp, mr.report.fleet_fp});
    gates.check("migration.migrations",
                static_cast<double>(mr.report.migrations), benchsup::Op::kEq,
                planned);
    gates.check("migration.latency_samples",
                static_cast<double>(mr.mig_count), benchsup::Op::kEq, planned);
    gates.check("migration.latency_p50_ns", static_cast<double>(mr.mig_p50_ns),
                benchsup::Op::kGe, 1);
    gates.check("migration.latency_p99_minus_p50_ns",
                static_cast<double>(mr.mig_p99_ns) -
                    static_cast<double>(mr.mig_p50_ns),
                benchsup::Op::kGe, 0);
    gates.check("migration.checkpoints_streamed",
                static_cast<double>(mr.report.checkpoints_streamed),
                benchsup::Op::kGe, 1);
    const double mig_bytes_per_ckpt =
        mr.report.checkpoints_streamed > 0
            ? static_cast<double>(mr.report.control_bytes) /
                  static_cast<double>(mr.report.checkpoints_streamed)
            : 0.0;
    benchsup::table_header("Live migration (8 shards, 2 workers)",
                           {"migrations", "p50-us", "p99-us", "ckpts",
                            "ctl-bytes", "B/ckpt"});
    benchsup::table_row(static_cast<double>(mr.report.migrations),
                        static_cast<double>(mr.mig_p50_ns) / 1e3,
                        static_cast<double>(mr.mig_p99_ns) / 1e3,
                        static_cast<double>(mr.report.checkpoints_streamed),
                        static_cast<double>(mr.report.control_bytes),
                        mig_bytes_per_ckpt);
    benchsup::Json migj = benchsup::Json::object();
    migj.set("shards", static_cast<std::uint64_t>(mig_shards));
    migj.set("workers", static_cast<std::uint64_t>(2));
    migj.set("migrations", mr.report.migrations);
    {
      benchsup::Json lat = benchsup::Json::object();
      lat.set("count", mr.mig_count);
      lat.set("p50_ns", mr.mig_p50_ns);
      lat.set("p99_ns", mr.mig_p99_ns);
      migj.set("latency", std::move(lat));
    }
    migj.set("checkpoints_streamed", mr.report.checkpoints_streamed);
    migj.set("control_bytes", mr.report.control_bytes);
    migj.set("control_bytes_per_checkpoint", mig_bytes_per_ckpt);
    proc.set("migration", std::move(migj));

    // Kill recovery: worker 1 _exits after its 3rd streamed checkpoint; the
    // coordinator restores its shards on survivors from the last cadenced
    // checkpoint. Zero lost shards, fingerprint unchanged.
    fleet::FleetOptions kill = room_options(3, mig_shards, seed, room_blob);
    kill.cadence_ns = sim::Time::sec(2.0).count();
    kill.kill = fleet::KillPlan{1, 3, fleet::KillMode::kExit};
    const ProcRun kr = run_proc(kill);
    gates.equal("recovery.fingerprint", {mig_straight_fp, kr.report.fleet_fp});
    gates.check("recovery.worker_deaths",
                static_cast<double>(kr.report.worker_deaths),
                benchsup::Op::kEq, 1);
    gates.check("recovery.lost_shards",
                static_cast<double>(kr.report.lost_shards), benchsup::Op::kEq,
                0);
    gates.check("recovery.issues_filed", static_cast<double>(kr.issues),
                benchsup::Op::kGe, 1);
    benchsup::table_header("Worker-kill recovery (8 shards, 3 workers)",
                           {"deaths", "lost", "recov-ms", "issues"});
    benchsup::table_row(static_cast<double>(kr.report.worker_deaths),
                        static_cast<double>(kr.report.lost_shards),
                        kr.report.recovery_ms,
                        static_cast<double>(kr.issues));
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
    proc.set("recovery", std::move(recov));
  } catch (const std::exception& e) {
    gates.fail(std::string("multi-process legs: ") + e.what());
    proc.set("error", std::string(e.what()));
  }

  // --- In-process efficiency gate. ----------------------------------------
  // Untimed, one pair still checks the gate fleet's determinism. It runs
  // after the multi-process legs: on a 4-core VM idle for 2 minutes, 4
  // workers ran at about 1x one worker for the first second or two of a
  // run, long enough to sink every pair of a gate run first. A timed run
  // also starts with one untimed warm-up pair, and its pairs alternate
  // which leg runs first.
  {
    std::vector<double> ratios;
    std::vector<std::uint64_t> fps;
    const auto leg = [&](std::size_t workers) {
      return run_fleet(room, kGateShards, workers, seed, true);
    };
    for (std::size_t p = 0; p < (timed ? 1 + kGatePairs : 1); ++p) {
      const bool one_first = p % 2 == 0;
      const FleetRun first = leg(one_first ? 1 : kGateWorkers);
      const FleetRun second = leg(one_first ? kGateWorkers : 1);
      const FleetRun& one = one_first ? first : second;
      const FleetRun& four = one_first ? second : first;
      fps.push_back(one.fingerprint);
      fps.push_back(four.fingerprint);
      if (timed && p == 0) continue;  // the warm-up pair
      ratios.push_back(four.wall_s > 0.0 ? one.wall_s / four.wall_s : 0.0);
    }
    gates.equal("efficiency_fleet.fingerprint", fps);
    gates.timing("inproc.efficiency_4w", ratios, benchsup::Op::kGe,
                 kMinEfficiency, true);
  }

  // Zero-alloc: steady-state checkpoint streaming through the recycled
  // scratch and channel buffers, measured by the global operator-new
  // counter.
  const ZeroAllocResult za = run_zero_alloc_leg(room, seed);
  gates.check("zero_alloc.heap_allocs", static_cast<double>(za.heap_allocs),
              benchsup::Op::kEq, 0);
  std::printf("\ncheckpoint streaming (%s shard 0): %llu heap allocs over "
              "%llu steady-state iterations; simulation between them: "
              "%llu (not gated)\n",
              room.name.c_str(), (unsigned long long)za.heap_allocs,
              (unsigned long long)za.iterations,
              (unsigned long long)za.sim_heap_allocs);
  {
    benchsup::Json zj = benchsup::Json::object();
    zj.set("scenario", room.name);
    zj.set("iterations", za.iterations);
    zj.set("heap_allocs", za.heap_allocs);
    zj.set("sim_heap_allocs", za.sim_heap_allocs);
    proc.set("zero_alloc", std::move(zj));
  }
  gates.check("min_events", static_cast<double>(min_events), benchsup::Op::kGe,
              1);

  benchsup::Json doc = benchsup::Json::object();
  doc.set("bench", "fleet");
  doc.set("seed", seed);
  benchsup::Json alloc = benchsup::Json::object();
  alloc.set("shards", static_cast<std::uint64_t>(ab_shards));
  alloc.set("heap_allocs_arena_off", heap_mode.heap_allocs);
  alloc.set("heap_allocs_arena_on", arena_mode.heap_allocs);
  alloc.set("arena_allocations", arena_mode.arena.allocations);
  alloc.set("arena_recycled", arena_mode.arena.recycled);
  alloc.set("arena_heap_fallbacks", arena_mode.arena.heap_fallbacks);
  alloc.set("arena_chunks", arena_mode.arena.chunks);
  doc.set("alloc", std::move(alloc));
  doc.set("runs", std::move(runs));
  doc.set("proc", std::move(proc));
  return gates.finish(doc, json_path);
}

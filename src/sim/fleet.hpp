// Fleet engine: many independent worlds over a work-stealing worker pool.
//
// The LPC model describes buildings full of rooms, each a self-contained
// pervasive-computing cell. A fleet run executes N such worlds ("shards"),
// each a full Environment -> Intentional stack driven by its own Simulator,
// across a pool of workers. Three properties hold by construction:
//
//  * Deterministic sharding. Shard k's world is seeded from
//    shard_seed(seed, k) — a counter-based splitmix64 stream — so every
//    shard's behavior is a pure function of (seed, k), independent of the
//    worker count, scheduling order, or steal pattern. Results are returned
//    in shard order; folding per-shard fingerprints in that order yields a
//    fleet fingerprint that is bit-identical for any worker count.
//
//  * Work stealing. Shards are heterogeneous (small rooms finish early,
//    large ones straggle). Each worker owns a deque seeded round-robin;
//    owners pop from the front, and an idle worker steals the back half of
//    a victim's deque. Static fan-out's tail latency collapses to the
//    longest single shard.
//
//  * Shared-nothing execution. Each shard owns its Simulator, RNG, arena,
//    and (optionally) telemetry sinks. Workers synchronize only on the
//    deques; merging per-shard telemetry happens after the run, in shard
//    order (see obs::MetricsRegistry::merge / SpanTracer::append_shard).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace aroma::sim {

/// Seed for shard `shard_id` of a fleet run seeded with `seed`. A
/// counter-based stream: any shard's seed is computable directly (no
/// sequential dependence), and distinct (seed, shard) pairs decorrelate
/// through two splitmix64 rounds.
std::uint64_t shard_seed(std::uint64_t seed, std::uint64_t shard_id);

/// Folds per-shard fingerprints, in shard order, into one fleet
/// fingerprint. Deterministic for any worker count because the input order
/// is shard order, never completion order.
std::uint64_t fleet_fingerprint(const std::vector<std::uint64_t>& shard_fps);

/// Work-stealing execution of a fixed batch of indexed tasks.
///
/// run() distributes indices [0, count) round-robin over per-worker deques
/// and blocks until every index has executed (or an exception aborts the
/// batch: no further tasks start, in-flight tasks finish, and the first
/// exception by completion order is rethrown on the caller's thread).
class WorkStealingPool {
 public:
  struct Stats {
    std::uint64_t steals = 0;  // successful steal operations (not tasks)
    std::uint64_t stolen_tasks = 0;  // tasks that migrated via a steal
    std::vector<std::uint64_t> tasks_run_per_worker;  // size == spawned
  };

  /// Runs fn(index, worker) for every index in [0, count). `workers` is
  /// clamped to `count` — a 2-task batch never spins up 8 threads; 0 means
  /// hardware_concurrency. Single-worker batches run inline on the caller
  /// (worker == 0).
  static Stats run(std::size_t workers, std::size_t count,
                   const std::function<void(std::size_t index,
                                            std::size_t worker)>& fn);

  static std::size_t hardware_workers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
  }
};

}  // namespace aroma::sim

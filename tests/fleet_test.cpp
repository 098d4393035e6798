// Tests for the fleet engine: the arena allocator, the work-stealing pool,
// deterministic shard seeding, and the tentpole property — fleet
// fingerprints are bit-identical for any worker count and equal to
// sequential execution.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/arena.hpp"
#include "sim/fleet.hpp"
#include "sim/random.hpp"
#include "sim/world.hpp"

namespace aroma::sim {
namespace {

// --- Arena ---------------------------------------------------------------

TEST(Arena, BumpAllocatesAndRecyclesBySizeClass) {
  Arena arena;
  void* a = arena.allocate(48, 8);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.stats().allocations, 1u);
  EXPECT_EQ(arena.stats().recycled, 0u);

  arena.recycle(a, 48, 8);
  // 48 bytes rounds to the 64-byte class; a 60-byte request shares it and
  // must get the recycled block back.
  void* b = arena.allocate(60, 8);
  EXPECT_EQ(b, a);
  EXPECT_EQ(arena.stats().recycled, 1u);
  arena.recycle(b, 60, 8);
}

TEST(Arena, OversizedAndOveralignedFallBackToHeap) {
  Arena arena;
  void* big = arena.allocate(Arena::kMaxBlockBytes + 1, 8);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(arena.stats().heap_fallbacks, 1u);
  EXPECT_EQ(arena.stats().allocations, 0u);
  arena.recycle(big, Arena::kMaxBlockBytes + 1, 8);

  constexpr std::size_t align = alignof(std::max_align_t) * 2;
  void* aligned = arena.allocate(64, align);
  ASSERT_NE(aligned, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(aligned) % align, 0u);
  EXPECT_EQ(arena.stats().heap_fallbacks, 2u);
  arena.recycle(aligned, 64, align);
}

TEST(Arena, DisabledPassesThroughToHeap) {
  Arena arena;
  arena.set_enabled(false);
  void* p = arena.allocate(64, 8);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.stats().allocations, 0u);
  EXPECT_EQ(arena.stats().chunks, 0u);
  arena.recycle(p, 64, 8);
}

TEST(Arena, BlocksAreMaxAligned) {
  Arena arena;
  for (std::size_t bytes : {16u, 24u, 100u, 1000u, 8000u}) {
    void* p = arena.allocate(bytes, alignof(std::max_align_t));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                  alignof(std::max_align_t),
              0u)
        << bytes;
    arena.recycle(p, bytes, alignof(std::max_align_t));
  }
}

TEST(ArenaAllocator, VectorDrawsFromArenaAndMoveAssignRebinds) {
  Arena arena;
  using Vec = std::vector<std::uint64_t, ArenaAllocator<std::uint64_t>>;
  // Default-constructed vector is heap-backed; move-assignment from an
  // arena-bound vector must carry the allocator over (propagation traits).
  Vec v;
  v = Vec(ArenaAllocator<std::uint64_t>(&arena));
  EXPECT_EQ(v.get_allocator().arena(), &arena);
  for (std::uint64_t i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_GT(arena.stats().allocations, 0u);
  EXPECT_EQ(v[999], 999u);
}

TEST(ArenaAllocator, ArenaSharedRecyclesControlBlocks) {
  Arena arena;
  struct Payload {
    std::uint64_t a = 1, b = 2;
  };
  const std::uint64_t before = arena.stats().allocations;
  {
    auto p = arena_shared<Payload>(arena);
    EXPECT_EQ(p->a, 1u);
  }
  EXPECT_GT(arena.stats().allocations, before);
  // Second round reuses the recycled control-block allocation.
  { auto p = arena_shared<Payload>(arena); }
  EXPECT_GT(arena.stats().recycled, 0u);
}

TEST(World, OwnsAnEnabledArena) {
  World world(7);
  EXPECT_TRUE(world.arena().enabled());
  void* p = world.arena().allocate(32, 8);
  ASSERT_NE(p, nullptr);
  world.arena().recycle(p, 32, 8);
}

TEST(Arena, HighWaterTracksLiveAndPeakBlocks) {
  Arena arena;
  void* a = arena.allocate(48, 8);  // size class 64
  void* b = arena.allocate(48, 8);
  EXPECT_EQ(arena.high_water().live_blocks, 2u);
  EXPECT_EQ(arena.high_water().live_bytes, 128u);
  EXPECT_EQ(arena.high_water().peak_blocks, 2u);
  arena.recycle(a, 48, 8);
  EXPECT_EQ(arena.high_water().live_blocks, 1u);
  EXPECT_EQ(arena.high_water().peak_blocks, 2u);  // peak is sticky
  arena.recycle(b, 48, 8);
  EXPECT_EQ(arena.high_water().live_blocks, 0u);
  EXPECT_EQ(arena.high_water().live_bytes, 0u);
}

TEST(Arena, ResetRewindsAndReusesTheFirstChunk) {
  Arena arena;
  void* a = arena.allocate(64, 8);
  arena.recycle(a, 64, 8);
  const std::uint64_t chunks = arena.stats().chunks;
  ASSERT_EQ(arena.high_water().live_blocks, 0u);  // precondition for reset
  arena.reset();
  // The next allocation bump-allocates from the rewound chunk — no new
  // slab, and the pre-reset free lists are gone.
  void* b = arena.allocate(64, 8);
  EXPECT_EQ(b, a);
  EXPECT_EQ(arena.stats().chunks, chunks);
  arena.recycle(b, 64, 8);
}

// Teardown-order contract: every arena-backed container releases its
// blocks before the world (and therefore the arena) is destroyed. A World
// declares its arena first so it is destroyed last; components recycling
// on their way down must leave live_blocks at exactly zero.
TEST(World, ArenaDrainsToZeroLiveBlocksAtTeardown) {
  auto world = std::make_unique<World>(11);
  {
    std::vector<std::byte, ArenaAllocator<std::byte>> payload(
        ArenaAllocator<std::byte>(&world->arena()));
    payload.resize(512);
    EXPECT_GT(world->arena().high_water().live_blocks, 0u);
  }
  EXPECT_EQ(world->arena().high_water().live_blocks, 0u)
      << "an arena-backed container outlived its teardown slot";
  EXPECT_GT(world->arena().high_water().peak_blocks, 0u);
}

// --- shard seeding and fingerprint folding -------------------------------

TEST(ShardSeed, PureCounterBasedAndDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    for (std::uint64_t shard = 0; shard < 64; ++shard) {
      const std::uint64_t s = shard_seed(seed, shard);
      EXPECT_NE(s, 0u);
      EXPECT_EQ(s, shard_seed(seed, shard));  // pure
      seen.insert(s);
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u);  // no collisions across the grid
}

TEST(FleetFingerprint, OrderSensitiveFold) {
  const std::vector<std::uint64_t> a = {1, 2, 3};
  const std::vector<std::uint64_t> b = {3, 2, 1};
  EXPECT_EQ(fleet_fingerprint(a), fleet_fingerprint(a));
  EXPECT_NE(fleet_fingerprint(a), fleet_fingerprint(b));
  EXPECT_NE(fleet_fingerprint({}), fleet_fingerprint({0}));
}

// --- WorkStealingPool ----------------------------------------------------

TEST(WorkStealingPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t workers : {1u, 2u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(97);
    const auto stats = WorkStealingPool::run(
        workers, hits.size(),
        [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    const std::uint64_t total =
        std::accumulate(stats.tasks_run_per_worker.begin(),
                        stats.tasks_run_per_worker.end(), std::uint64_t{0});
    EXPECT_EQ(total, hits.size());
  }
  // An empty batch runs nothing and spawns no worker.
  const auto none = WorkStealingPool::run(
      4, 0, [](std::size_t, std::size_t) { ADD_FAILURE(); });
  EXPECT_TRUE(none.tasks_run_per_worker.empty());
}

TEST(WorkStealingPool, ClampsWorkersToTaskCount) {
  const auto stats =
      WorkStealingPool::run(8, 3, [](std::size_t, std::size_t) {});
  EXPECT_EQ(stats.tasks_run_per_worker.size(), 3u);
}

TEST(WorkStealingPool, SingleWorkerRunsInlineInOrder) {
  std::vector<std::size_t> order;
  const auto stats = WorkStealingPool::run(1, 5, [&](std::size_t i,
                                                     std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.tasks_run_per_worker, (std::vector<std::uint64_t>{5}));
}

TEST(WorkStealingPool, StealsMigrateTasksUnderImbalance) {
  // Worker 0's deque gets the long task first; the other workers must
  // steal the rest of its backlog. Round-robin dealing puts indices
  // {0, 4, 8, ...} on worker 0, so stalling index 0 leaves its deque full
  // while other workers drain and come stealing.
  std::atomic<std::uint64_t> done{0};
  const auto stats = WorkStealingPool::run(
      4, 64, [&](std::size_t i, std::size_t) {
        if (i == 0) {
          // Busy-wait until most other tasks have finished (they can only
          // finish via steals or their own deques).
          while (done.load(std::memory_order_acquire) < 48) {}
        }
        done.fetch_add(1, std::memory_order_release);
      });
  EXPECT_EQ(done.load(), 64u);
  EXPECT_EQ(stats.tasks_run_per_worker.size(), 4u);
  // Worker 0 was pinned on task 0, so its remaining round-robin share must
  // have migrated: at least one steal happened.
  EXPECT_GT(stats.steals, 0u);
  EXPECT_GT(stats.stolen_tasks, 0u);
}

TEST(WorkStealingPool, FirstExceptionPropagatesAndAbortsBatch) {
  // Two workers, and one: the inline single-worker path propagates too.
  for (const std::size_t workers : {2u, 1u}) {
    std::atomic<std::uint64_t> ran{0};
    try {
      WorkStealingPool::run(workers, 1000, [&](std::size_t i, std::size_t) {
        if (i == 3) throw std::runtime_error("boom");
        ran.fetch_add(1);
      });
      ADD_FAILURE() << "expected exception with " << workers << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
    // Abort semantics: no further tasks start after the throw, so a
    // healthy chunk of the batch never ran.
    EXPECT_LT(ran.load(), 1000u);
  }
}

// --- Fleet determinism ---------------------------------------------------

// A miniature but real shard: a world whose RNG and event kernel both feed
// the fingerprint, so any cross-shard contamination or seed drift shows.
std::uint64_t mini_world_fingerprint(std::uint64_t seed) {
  World world(seed);
  Rng rng = world.rng().fork(0xf1ee7);
  std::uint64_t acc = seed;
  for (int i = 0; i < 16; ++i) {
    world.sim().schedule_in(Time::ms(1 + rng.uniform_int(0, 9)),
                            EventCategory::kOther, [&acc, &world] {
                              acc = mix_hash(
                                  acc,
                                  static_cast<std::uint64_t>(
                                      world.now().count()));
                            });
  }
  world.sim().run_until(Time::sec(1));
  acc = mix_hash(acc, world.sim().executed());
  acc = mix_hash(acc, rng.next_u64());
  return acc;
}

// Shard i of a fleet seeded with `seed` runs on shard_seed(seed, i) over
// the pool; results land in shard order.
std::vector<std::uint64_t> pool_fingerprints(std::size_t workers,
                                             std::size_t shards,
                                             std::uint64_t seed) {
  std::vector<std::uint64_t> fps(shards);
  WorkStealingPool::run(workers, shards, [&](std::size_t i, std::size_t) {
    fps[i] = mini_world_fingerprint(shard_seed(seed, i));
  });
  return fps;
}

TEST(FleetDeterminism, FingerprintIdenticalAcrossWorkerCounts) {
  const std::uint64_t seed = 2026;
  const std::size_t shards = 24;

  // Sequential reference: plain loop, no pool involved at all.
  std::vector<std::uint64_t> reference;
  for (std::size_t k = 0; k < shards; ++k) {
    reference.push_back(mini_world_fingerprint(shard_seed(seed, k)));
  }
  const std::uint64_t reference_fp = fleet_fingerprint(reference);

  std::vector<std::size_t> worker_counts = {1, 2,
                                            WorkStealingPool::hardware_workers()};
  for (const std::size_t workers : worker_counts) {
    const std::vector<std::uint64_t> fps =
        pool_fingerprints(workers, shards, seed);
    EXPECT_EQ(fps, reference) << "workers=" << workers;
    EXPECT_EQ(fleet_fingerprint(fps), reference_fp) << "workers=" << workers;
  }
}

TEST(FleetDeterminism, PropertyFingerprintStableOverSeeds) {
  // Property over seeds: for every seed, 1-worker and multi-worker fleets
  // agree shard-for-shard.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(pool_fingerprints(1, 9, seed), pool_fingerprints(3, 9, seed))
        << "seed=" << seed;
  }
}

TEST(FleetDeterminism, ShardSeedDerivesFromIndex) {
  const std::uint64_t seed = 99;
  std::vector<std::uint64_t> seeds(6);
  WorkStealingPool::run(2, seeds.size(), [&](std::size_t i, std::size_t) {
    seeds[i] = shard_seed(seed, i);
  });
  // Derived on pool workers, the seeds equal the caller-side derivation.
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    EXPECT_EQ(seeds[k], shard_seed(seed, k));
  }
}

}  // namespace
}  // namespace aroma::sim

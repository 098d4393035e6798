// Unit and property tests for the simulation kernel.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/parallel.hpp"
#include "sim/profiler.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/world.hpp"

namespace aroma::sim {
namespace {

// --- Time ------------------------------------------------------------------

TEST(Time, FactoriesAndAccessors) {
  EXPECT_EQ(Time::ns(5).count(), 5);
  EXPECT_EQ(Time::us(5).count(), 5'000);
  EXPECT_EQ(Time::ms(5).count(), 5'000'000);
  EXPECT_DOUBLE_EQ(Time::sec(2.5).seconds(), 2.5);
  EXPECT_DOUBLE_EQ(Time::ms(1500).seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Time::us(1500).millis(), 1.5);
}

TEST(Time, Arithmetic) {
  const Time a = Time::ms(10);
  const Time b = Time::ms(3);
  EXPECT_EQ((a + b).count(), Time::ms(13).count());
  EXPECT_EQ((a - b).count(), Time::ms(7).count());
  EXPECT_EQ((a * 3).count(), Time::ms(30).count());
  EXPECT_EQ((a / 2).count(), Time::ms(5).count());
  EXPECT_DOUBLE_EQ(a / b, 10.0 / 3.0);
  EXPECT_LT(b, a);
  EXPECT_EQ(Time::zero().count(), 0);
  EXPECT_TRUE(Time::zero().is_zero());
  EXPECT_TRUE((b - a).is_negative());
}

TEST(Time, Scale) {
  EXPECT_EQ(scale(Time::ms(10), 0.5).count(), Time::ms(5).count());
  EXPECT_EQ(scale(Time::sec(1), 2.0).count(), Time::sec(2).count());
}

TEST(Time, ToStringPicksUnits) {
  EXPECT_EQ(Time::ns(12).to_string(), "12ns");
  EXPECT_NE(Time::us(12).to_string().find("us"), std::string::npos);
  EXPECT_NE(Time::ms(12).to_string().find("ms"), std::string::npos);
  EXPECT_NE(Time::sec(12).to_string().find("s"), std::string::npos);
}

// --- Rng ---------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool any_diff = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) any_diff |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRange) {
  Rng r(1);
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBoundsAndCoverage) {
  Rng r(2);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6'000; ++i) {
    const auto v = r.uniform_int(10, 15);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 15);
    ++seen[static_cast<std::size_t>(v - 10)];
  }
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 each
}

TEST(Rng, UniformIntDegenerate) {
  Rng r(3);
  EXPECT_EQ(r.uniform_int(7, 7), 7);
  EXPECT_EQ(r.uniform_int(9, 2), 9);  // hi < lo clamps to lo
}

TEST(Rng, ExponentialMean) {
  Rng r(4);
  Accumulator acc;
  for (int i = 0; i < 50'000; ++i) acc.add(r.exponential(3.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.1);
  EXPECT_GE(acc.min(), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng r(5);
  Accumulator acc;
  for (int i = 0; i < 50'000; ++i) acc.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, PoissonMean) {
  Rng r(6);
  Accumulator small, large;
  for (int i = 0; i < 20'000; ++i) {
    small.add(static_cast<double>(r.poisson(2.5)));
    large.add(static_cast<double>(r.poisson(80.0)));
  }
  EXPECT_NEAR(small.mean(), 2.5, 0.1);
  EXPECT_NEAR(large.mean(), 80.0, 1.0);
}

TEST(Rng, BernoulliProbability) {
  Rng r(7);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20'000.0, 0.3, 0.02);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng r(8);
  int ones = 0, total = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto v = r.zipf(100, 1.2);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 100);
    if (v == 1) ++ones;
    ++total;
  }
  EXPECT_GT(static_cast<double>(ones) / total, 0.2);
}

TEST(Rng, WeightedIndex) {
  Rng r(9);
  std::vector<double> w{0.0, 1.0, 3.0};
  std::vector<int> seen(3, 0);
  for (int i = 0; i < 10'000; ++i) ++seen[r.weighted_index(w)];
  EXPECT_EQ(seen[0], 0);
  EXPECT_NEAR(static_cast<double>(seen[2]) / seen[1], 3.0, 0.4);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(10);
  Rng childa = parent.fork(1);
  Rng childb = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (childa.next_u64() == childb.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(SplitMix, HashOrderIndependentViaMixCaller) {
  // mix_hash is not symmetric, but callers sort ids; verify determinism.
  EXPECT_EQ(mix_hash(1, 2), mix_hash(1, 2));
  EXPECT_NE(mix_hash(1, 2), mix_hash(2, 1));
}

// --- Simulator ---------------------------------------------------------

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(Time::ms(30), [&] { order.push_back(3); });
  s.schedule_at(Time::ms(10), [&] { order.push_back(1); });
  s.schedule_at(Time::ms(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Time::ms(30));
}

TEST(Simulator, FifoAmongEqualTimes) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(Time::ms(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  Time observed;
  s.schedule_in(Time::ms(10), [&] {
    s.schedule_in(Time::ms(5), [&] { observed = s.now(); });
  });
  s.run();
  EXPECT_EQ(observed, Time::ms(15));
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator s;
  int fired = 0;
  s.schedule_at(Time::ms(10), [&] { ++fired; });
  s.schedule_at(Time::ms(50), [&] { ++fired; });
  const auto n = s.run_until(Time::ms(20));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::ms(20));
  s.run_until(Time::ms(100));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  int fired = 0;
  auto h = s.schedule_at(Time::ms(10), [&] { ++fired; });
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(h));  // double cancel is a no-op
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, EventsScheduledInPastClampToNow) {
  Simulator s;
  Time when;
  s.schedule_at(Time::ms(10), [&] {
    s.schedule_at(Time::ms(1), [&] { when = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(when, Time::ms(10));
}

TEST(Simulator, ExecutedCounter) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_in(Time::ms(i), [] {});
  s.run();
  EXPECT_EQ(s.executed(), 7u);
}

// Regression: cancelling a handle whose event already fired used to be
// accepted, decrementing the pending count below zero (underflow).
TEST(Simulator, CancelAfterFireIsRejected) {
  Simulator s;
  int fired = 0;
  auto h = s.schedule_at(Time::ms(1), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.cancel(h));
  EXPECT_EQ(s.pending(), 0u);  // must not underflow
  // The kernel stays fully usable afterwards.
  s.schedule_in(Time::ms(1), [&] { ++fired; });
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.pending(), 0u);
}

// A stale handle must not cancel an unrelated later event that happens to
// reuse the same internal slot.
TEST(Simulator, StaleHandleCannotCancelSlotReuse) {
  Simulator s;
  int first = 0, second = 0;
  auto h = s.schedule_at(Time::ms(1), [&] { ++first; });
  s.run();
  auto h2 = s.schedule_at(Time::ms(2), [&] { ++second; });
  EXPECT_FALSE(s.cancel(h));  // stale: its event already fired
  s.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);  // survived the stale cancel
  EXPECT_TRUE(h2.valid());
}

TEST(Simulator, PeakPendingTracksHighWaterMark) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_in(Time::ms(i + 1), [] {});
  EXPECT_EQ(s.peak_pending(), 5u);
  s.run();
  EXPECT_EQ(s.peak_pending(), 5u);  // peak survives the drain
  s.schedule_in(Time::ms(1), [] {});
  s.run();
  EXPECT_EQ(s.peak_pending(), 5u);  // smaller waves don't move it
}

// --- Event trains (same-time sweep batching; sim/event_queue.hpp) --------

// Randomized bursts, with and without train batching: the execution order
// is defined by (when, seq) alone and must be identical, including events
// scheduled from inside a callback at the current timestamp (they join the
// in-progress sweep).
TEST(Simulator, TrainBatchingPreservesOrderUnderBursts) {
  const auto run = [](bool trains) {
    Simulator s;
    s.set_train_batching(trains);
    Rng rng(2468);
    std::vector<int> order;
    int next_tag = 0;
    for (int k = 0; k < 300; ++k) {
      // Heavily colliding timestamps: ~15 distinct instants for 300 events.
      const Time t = Time::us(100 * rng.uniform_int(0, 14));
      const int tag = next_tag++;
      s.schedule_at(t, [&order, tag] { order.push_back(tag); });
    }
    // From-callback schedules at the same instant and slightly later.
    s.schedule_at(Time::us(700), [&s, &order, &next_tag] {
      for (int j = 0; j < 5; ++j) {
        const int tag = next_tag++;
        s.schedule_at(Time::us(700), [&order, tag] { order.push_back(tag); });
        const int tag2 = next_tag++;
        s.schedule_in(Time::us(50), [&order, tag2] { order.push_back(tag2); });
      }
    });
    s.run();
    return order;
  };
  const auto batched = run(true);
  const auto heap_only = run(false);
  EXPECT_EQ(batched, heap_only);
  EXPECT_EQ(batched.size(), 310u);
}

// Absorption is telemetry only: a subset of executed, nonzero under
// same-time bursts, zero with trains disabled.
TEST(Simulator, AbsorbedCountsTrainMembers) {
  Simulator s;
  for (int i = 0; i < 20; ++i) {
    s.schedule_at(Time::ms(1), [] {});
    s.schedule_at(Time::ms(2), [] {});
  }
  s.run();
  EXPECT_EQ(s.executed(), 40u);
  EXPECT_GT(s.absorbed(), 0u);
  EXPECT_LE(s.absorbed(), s.executed());

  Simulator off;
  off.set_train_batching(false);
  for (int i = 0; i < 20; ++i) off.schedule_at(Time::ms(1), [] {});
  off.run();
  EXPECT_EQ(off.executed(), 20u);
  EXPECT_EQ(off.absorbed(), 0u);
}

// Cancelling an event that is parked on a train (not in the heap) must
// still work, and must not disturb its train-mates.
TEST(Simulator, CancelReachesParkedTrainMembers) {
  Simulator s;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 12; ++i) {
    handles.push_back(
        s.schedule_at(Time::ms(5), [&order, i] { order.push_back(i); }));
  }
  // Odd members cancelled before the burst runs.
  for (std::size_t i = 1; i < handles.size(); i += 2) {
    EXPECT_TRUE(s.cancel(handles[i]));
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8, 10}));
}

// pending_event_info must see parked members exactly like heap residents.
TEST(Simulator, PendingEventInfoSeesParkedTrainMembers) {
  Simulator s;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(s.schedule_at(Time::ms(3), [] {}));
  }
  for (const EventHandle& h : handles) {
    const auto info = s.pending_event_info(h);
    EXPECT_TRUE(info.valid);
    EXPECT_EQ(info.when, Time::ms(3));
  }
  s.run();
  EXPECT_FALSE(s.pending_event_info(handles.front()).valid);
}

// restore_event feeds explicit (when, seq) pairs out of order — the
// checkpoint-restore path. Trains must still replay them in seq order.
TEST(Simulator, RestoreEventOutOfOrderSeqReplaysInOrder) {
  Simulator s;
  std::vector<int> order;
  static constexpr std::uint64_t kSeqs[] = {40, 10, 30, 20, 50};
  int tag = 0;
  for (const std::uint64_t seq : kSeqs) {
    const int t = tag++;
    s.restore_event(Time::ms(2), seq, 100 + seq, EventCategory::kNone,
                    [&order, t] { order.push_back(t); });
  }
  s.run();
  // seq order: 10, 20, 30, 40, 50 -> tags 1, 3, 2, 0, 4
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 0, 4}));
}

TEST(PeriodicTimer, FiresAtPeriodAndStops) {
  Simulator s;
  int fired = 0;
  PeriodicTimer t(s, Time::ms(10), [&] { ++fired; });
  t.start();
  s.run_until(Time::ms(35));
  EXPECT_EQ(fired, 3);
  t.stop();
  s.run_until(Time::ms(100));
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTimer, StartAfterInitialDelay) {
  Simulator s;
  std::vector<Time> fires;
  PeriodicTimer t(s, Time::ms(10), [&] { fires.push_back(s.now()); });
  t.start_after(Time::ms(1));
  s.run_until(Time::ms(25));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], Time::ms(1));
  EXPECT_EQ(fires[1], Time::ms(11));
}

TEST(PeriodicTimer, RaiiCancelsOnDestruction) {
  Simulator s;
  int fired = 0;
  {
    PeriodicTimer t(s, Time::ms(10), [&] { ++fired; });
    t.start();
  }
  s.run_until(Time::ms(100));
  EXPECT_EQ(fired, 0);
}

// --- Stats -------------------------------------------------------------

TEST(Accumulator, Moments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, MergeMatchesPooled) {
  Rng r(12);
  Accumulator pooled, pa, pb;
  for (int i = 0; i < 1'000; ++i) {
    const double x = r.normal(5, 2);
    pooled.add(x);
    (i % 2 ? pa : pb).add(x);
  }
  pa.merge(pb);
  EXPECT_EQ(pa.count(), pooled.count());
  EXPECT_NEAR(pa.mean(), pooled.mean(), 1e-9);
  EXPECT_NEAR(pa.variance(), pooled.variance(), 1e-9);
}

TEST(Accumulator, EmptyIsSafe) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.ci95_halfwidth(), 0.0);
}

TEST(Histogram, QuantilesOfUniform) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100'000; ++i) {
    h.add(static_cast<double>(i % 100) + 0.5);
  }
  EXPECT_NEAR(h.median(), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
  EXPECT_EQ(h.clamped(), 0u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(15.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.clamped(), 2u);
}

TEST(TimeWeighted, AveragesQueueLength) {
  TimeWeighted tw;
  tw.update(Time::sec(0), 0.0);
  tw.update(Time::sec(10), 2.0);  // 0 for 10 s
  tw.update(Time::sec(20), 0.0);  // 2 for 10 s
  EXPECT_DOUBLE_EQ(tw.average(Time::sec(20)), 1.0);
  // Continues integrating the current value.
  EXPECT_NEAR(tw.average(Time::sec(40)), 0.5, 1e-9);
}

TEST(RateMeter, Rate) {
  RateMeter m;
  m.start(Time::sec(0));
  m.add(10);
  EXPECT_DOUBLE_EQ(m.rate_per_sec(Time::sec(5)), 2.0);
}

// --- Kernel counters & profiler -----------------------------------------

TEST(Simulator, CancelledAndStaleRejectCounters) {
  Simulator s;
  int fired = 0;
  EventHandle a = s.schedule_in(Time::ms(1), [&] { ++fired; });
  EventHandle b = s.schedule_in(Time::ms(2), [&] { ++fired; });
  EXPECT_TRUE(s.cancel(a));
  EXPECT_EQ(s.cancelled(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
  // Cancelling after the event fired is a stale-handle reject.
  EXPECT_FALSE(s.cancel(b));
  EXPECT_EQ(s.stale_handle_rejects(), 1u);
  EXPECT_EQ(s.cancelled(), 1u);
}

namespace {

/// One per-category counter summed over every category.
std::uint64_t total(const KernelProfiler& prof,
                    std::uint64_t KernelProfiler::CategoryStats::*field) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kEventCategoryCount; ++i) {
    n += prof.stats(static_cast<EventCategory>(i)).*field;
  }
  return n;
}

}  // namespace

TEST(KernelProfiler, CountsExecutedEventsPerCategory) {
  Simulator s;
  KernelProfiler prof;
  s.set_profiler(&prof);
  s.schedule_in(Time::ms(1), EventCategory::kMac, [] {});
  s.schedule_in(Time::ms(2), EventCategory::kMac, [] {});
  s.schedule_in(Time::ms(3), EventCategory::kRadio, [] {});
  s.schedule_in(Time::ms(4), [] {});  // unstamped
  s.run();
  EXPECT_EQ(prof.stats(EventCategory::kMac).executed, 2u);
  EXPECT_EQ(prof.stats(EventCategory::kRadio).executed, 1u);
  EXPECT_EQ(prof.stats(EventCategory::kNone).executed, 1u);
  EXPECT_EQ(total(prof, &KernelProfiler::CategoryStats::executed), 4u);
}

TEST(KernelProfiler, FollowUpEventsInheritTheRunningCategory) {
  // A chain stamped once at the top stays in its category: events
  // scheduled from inside a callback inherit the executing event's tag.
  Simulator s;
  KernelProfiler prof;
  s.set_profiler(&prof);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 4) s.schedule_in(Time::ms(1), chain);
  };
  s.schedule_in(Time::ms(1), EventCategory::kStream, chain);
  s.run();
  EXPECT_EQ(prof.stats(EventCategory::kStream).executed, 4u);
  EXPECT_EQ(prof.stats(EventCategory::kNone).executed, 0u);
}

TEST(KernelProfiler, TrainAbsorbedEventsKeepTheirCategory) {
  // Regression: per-category attribution must be identical whether an
  // event is dispatched off the heap or absorbed into a same-time train.
  // Run the same bursty workload with batching on and off and compare.
  const auto workload = [](Simulator& s, KernelProfiler& prof) {
    s.set_profiler(&prof);
    // Same-time bursts with mixed categories: each burst forms a train,
    // and the member categories must survive absorption.
    for (int burst = 0; burst < 8; ++burst) {
      const Time when = Time::ms(1 + burst);
      for (int i = 0; i < 16; ++i) {
        const EventCategory c =
            i % 3 == 0 ? EventCategory::kRadio
                       : (i % 3 == 1 ? EventCategory::kMac
                                     : EventCategory::kLease);
        s.schedule_at(when, c, [&s, c] {
          // Follow-ups from inside an absorbed event must also inherit.
          s.schedule_in(Time::us(10), [] {});
          (void)c;
        });
      }
    }
    s.run();
  };

  Simulator batched;
  KernelProfiler prof_batched;
  workload(batched, prof_batched);
  ASSERT_GT(batched.absorbed(), 0u);  // the workload genuinely forms trains

  Simulator scalar;
  KernelProfiler prof_scalar;
  scalar.set_train_batching(false);
  workload(scalar, prof_scalar);
  EXPECT_EQ(scalar.absorbed(), 0u);

  for (std::size_t i = 0; i < kEventCategoryCount; ++i) {
    const auto c = static_cast<EventCategory>(i);
    EXPECT_EQ(prof_batched.stats(c).executed, prof_scalar.stats(c).executed)
        << "category " << to_string(c);
  }
  constexpr auto kExecuted = &KernelProfiler::CategoryStats::executed;
  constexpr auto kAbsorbed = &KernelProfiler::CategoryStats::absorbed;
  EXPECT_EQ(total(prof_batched, kExecuted), total(prof_scalar, kExecuted));
  // The absorbed split is bookkeeping on top: it must sum to the queue's
  // own counter and never exceed the executed count per category.
  EXPECT_EQ(total(prof_batched, kAbsorbed), batched.absorbed());
  EXPECT_EQ(total(prof_scalar, kAbsorbed), 0u);
  for (std::size_t i = 0; i < kEventCategoryCount; ++i) {
    const auto c = static_cast<EventCategory>(i);
    EXPECT_LE(prof_batched.stats(c).absorbed, prof_batched.stats(c).executed);
  }
}

namespace {

/// A kernel trace ring big enough that nothing wraps in these tests. No
/// slow path: the default stall limit and wake deadline never trip.
struct TestRing {
  std::vector<Simulator::TraceRecord> records =
      std::vector<Simulator::TraceRecord>(1 << 10);
  Simulator::TraceHot hot;
  TestRing() {
    hot.ring = records.data();
    hot.mask = records.size() - 1;
  }
  std::uint64_t count(EventCategory c) const {
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < hot.total; ++i) {
      n += records[i].code == static_cast<std::uint16_t>(c) ? 1 : 0;
    }
    return n;
  }
};

}  // namespace

TEST(TraceRing, SeesEveryExecutedEventWithItsCategory) {
  Simulator s;
  TestRing ring;
  s.attach_event_trace(&ring.hot);
  s.schedule_in(Time::ms(1), EventCategory::kMac, [] {});
  s.schedule_in(Time::ms(2), EventCategory::kRadio, [&s] {
    s.schedule_in(Time::ms(1), [] {});  // inherits kRadio
  });
  s.run();
  EXPECT_EQ(ring.hot.total, s.executed());
  EXPECT_EQ(ring.count(EventCategory::kMac), 1u);
  EXPECT_EQ(ring.count(EventCategory::kRadio), 2u);
  // Records carry the event's (t, id, seq) in execution order.
  EXPECT_EQ(ring.records[2].t_ns, Time::ms(3).count());
  EXPECT_EQ(ring.records[2].a, 3u);  // the inheriting child's id
  EXPECT_LT(ring.records[0].b, ring.records[1].b);
  s.detach_event_trace(&ring.hot);
  EXPECT_EQ(s.event_trace(), nullptr);
}

TEST(TraceRing, DoesNotPerturbExecutionOrIds) {
  // The ring is observation-only: an identical seeded workload must
  // execute the same events in the same order with the ring attached or
  // not.
  const auto run_one = [](Simulator::TraceHot* ring) {
    Simulator s;
    if (ring != nullptr) s.attach_event_trace(ring);
    Rng rng(42);
    std::vector<std::uint64_t> order;
    std::function<void(int)> spawn = [&](int depth) {
      order.push_back(s.executed());
      if (depth < 6) {
        for (int i = 0; i < 3; ++i) {
          s.schedule_in(Time::us(rng.uniform_int(1, 1000)),
                        [&spawn, depth] { spawn(depth + 1); });
        }
      }
    };
    s.schedule_in(Time::ms(1), [&spawn] { spawn(0); });
    s.run();
    return std::pair{s.executed(), order};
  };
  TestRing ring;
  const auto with = run_one(&ring.hot);
  const auto without = run_one(nullptr);
  EXPECT_EQ(with.first, without.first);
  EXPECT_EQ(with.second, without.second);
  EXPECT_EQ(ring.hot.total, with.first);
}

TEST(Simulator, TraceContextPropagatesAcrossScheduling) {
  // The kernel captures the active trace context at schedule time and
  // restores it while the event runs, so spans opened inside callbacks
  // can parent to their cause even across simulated delays.
  Simulator s;
  std::uint64_t seen_inside = 0;
  std::uint64_t seen_follow_up = 0;
  {
    ScopedTraceContext ctx(s, 77);
    s.schedule_in(Time::ms(1), [&] {
      seen_inside = s.trace_context();
      s.schedule_in(Time::ms(1), [&] { seen_follow_up = s.trace_context(); });
    });
  }
  EXPECT_EQ(s.trace_context(), 0u);  // restored at scope exit
  s.run();
  EXPECT_EQ(seen_inside, 77u);
  EXPECT_EQ(seen_follow_up, 77u);  // inherited through the nested schedule
  EXPECT_EQ(s.trace_context(), 0u);  // reset after the queue drains
}

// --- ParallelRunner ------------------------------------------------------

TEST(ParallelRunner, RunsAllTrials) {
  ParallelRunner pool(4);
  std::vector<int> hits(100, 0);
  pool.run(100, [&](std::size_t i) { hits[i] = static_cast<int>(i) + 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], static_cast<int>(i) + 1);
  }
}

TEST(ParallelRunner, MapCollectsResults) {
  ParallelRunner pool(3);
  auto out = pool.map<std::size_t>(50, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 50u);
  EXPECT_EQ(out[7], 49u);
}

TEST(ParallelRunner, ZeroTrialsIsFine) {
  ParallelRunner pool(2);
  pool.run(0, [](std::size_t) { FAIL(); });
}

// A throwing trial must not terminate the process: the first exception is
// rethrown on the caller's thread once all workers have joined.
TEST(ParallelRunner, TrialExceptionRethrownOnCaller) {
  ParallelRunner pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.run(64,
               [&](std::size_t i) {
                 if (i == 5) throw std::runtime_error("trial 5 failed");
                 completed.fetch_add(1, std::memory_order_relaxed);
               }),
      std::runtime_error);
  // No further trials start after the failure, but nothing crashes and
  // already-running trials complete.
  EXPECT_LT(completed.load(), 64);
}

TEST(ParallelRunner, TrialExceptionMessagePreserved) {
  ParallelRunner pool(2);
  try {
    pool.run(8, [](std::size_t i) {
      if (i == 0) throw std::runtime_error("boom");
    });
    FAIL() << "expected the trial exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ParallelRunner, SingleWorkerExceptionAlsoPropagates) {
  ParallelRunner pool(1);
  EXPECT_THROW(
      pool.run(3, [](std::size_t) { throw std::runtime_error("serial"); }),
      std::runtime_error);
}

TEST(World, ForkedRngDiffersFromRoot) {
  World w(77);
  Rng a = w.fork_rng(1);
  Rng b = w.fork_rng(1);  // root advanced -> different stream
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// Determinism property: identical worlds evolve identically.
TEST(World, DeterministicEvolution) {
  auto run = [](std::uint64_t seed) {
    World w(seed);
    Rng r = w.fork_rng(9);
    std::vector<double> order;
    for (int i = 0; i < 20; ++i) {
      w.sim().schedule_in(Time::ms(r.uniform_int(1, 50)),
                          [&order, &w] { order.push_back(w.now().seconds()); });
    }
    w.sim().run();
    return order;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace aroma::sim

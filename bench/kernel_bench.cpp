// KERNEL — microbenchmark suite for the two hot paths every experiment
// funnels through: the event kernel (sim::Simulator) and the radio
// medium's delivery/CCA scans (env::RadioMedium).
//
// Scenarios:
//   churn      — schedule/cancel churn: a rolling window of pending events
//                with half of them cancelled before they fire.
//   timers     — periodic-timer storm: hundreds of concurrently armed
//                timers re-arming themselves every few milliseconds.
//   radio_N    — N-radio broadcast scaling (N = 8/64/256): nodes spread at
//                constant density, each multicasting on a 1/6/11 channel
//                plan, exercising delivery culling, CCA, and interference.
//                A sweep rebuild visits all N endpoints and culls each by
//                range.
//
// Every scenario runs twice: a *scalar* leg with event-train batching off
// and the radio medium on its exhaustive oracle (RadioMediumOptions::batch
// off: every endpoint visited, the whole history scanned, every link
// budget computed uncached) and a *batched* leg with the defaults. Both
// legs must produce bit-identical fingerprints — batching is a pure
// mechanical optimization — and the batched leg is the headline result.
// The JSON gains a "batching" section per scenario (absorbed/dispatched
// split, per-category wall attribution, RadioMedium::BatchStats,
// speedups), and radio_256 self-gates: its
// dominant event category (the most callback wall time on the scalar leg)
// must run >= 4.3x faster than the scalar leg or the bench exits nonzero.
// Every scenario runs its legs as 7 interleaved scalar/batched pairs, so
// host drift hits both legs of a pair alike: its recorded speedup is the
// median per-pair wall ratio, with the ratios' quartiles as its noise, and
// the gate reads the median pair ratio of its category the same way.
//
// Wall time, simulated events/sec, peak pending-event count, and a
// deterministic fingerprint (pure function of the seed) are recorded per
// scenario; per-event wall attribution (KernelProfiler::enable_timing) is
// on for both legs, so the per-category clock overhead cancels out of the
// speedup ratios. Results print as tables and land in BENCH_kernel.json.
//
// With `--trace`, the radio scenarios' batched legs additionally run with a
// telemetry bundle attached and the resulting causal spans are written as a
// Chrome trace (kernel_trace.json, loadable in Perfetto) and as JSONL
// (kernel_spans.jsonl). Tracing never changes scenario fingerprints.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "sim/profiler.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace {

using namespace aroma;

struct CatStats {
  std::string name;
  std::uint64_t executed = 0;
  std::uint64_t absorbed = 0;  // popped off a same-time train
  double wall_sec = 0.0;       // callback wall time attributed to the category
};

struct ScenarioResult {
  std::string name;
  sim::Throughput throughput;
  std::uint64_t fingerprint = 0;  // deterministic: depends only on the seed
  std::uint64_t absorbed = 0;     // total train-absorbed events
  // Per-category stats, nonzero-executed entries only, enum order.
  std::vector<CatStats> categories;
  bool has_radio_stats = false;
  env::RadioMedium::BatchStats radio;  // batched leg only; zero otherwise
};

std::vector<CatStats> nonzero_categories(const sim::KernelProfiler& prof) {
  std::vector<CatStats> out;
  for (std::size_t i = 0; i < sim::kEventCategoryCount; ++i) {
    const auto c = static_cast<sim::EventCategory>(i);
    const sim::KernelProfiler::CategoryStats& s = prof.stats(c);
    if (s.executed > 0) {
      out.push_back({std::string(sim::to_string(c)), s.executed, s.absorbed,
                     s.wall_sec});
    }
  }
  return out;
}

const CatStats* find_category(const ScenarioResult& r, const std::string& n) {
  for (const CatStats& c : r.categories) {
    if (c.name == n) return &c;
  }
  return nullptr;
}

// --- churn: schedule/cancel interleaving -----------------------------------

ScenarioResult bench_churn(std::uint64_t seed, bool batched) {
  constexpr int kOps = 400'000;
  constexpr int kWindow = 4'096;  // live handles eligible for cancellation

  // Category per window slot, cycling through four owners — the profiler
  // breakdown shows real categories instead of a single `none` bucket.
  // Derived from the slot index (not the rng), so the rng stream and the
  // fingerprint are untouched by the stamping.
  static constexpr sim::EventCategory kSlotCategory[4] = {
      sim::EventCategory::kApp, sim::EventCategory::kStream,
      sim::EventCategory::kLease, sim::EventCategory::kDiscovery};

  sim::Simulator s;
  s.set_train_batching(batched);
  sim::KernelProfiler prof;
  prof.enable_timing(true);
  s.set_profiler(&prof);
  sim::Rng rng(seed);
  std::vector<sim::EventHandle> window(kWindow);
  std::uint64_t fired = 0, cancelled_ok = 0;

  sim::WallTimer timer;
  for (int i = 0; i < kOps; ++i) {
    const auto delay = sim::Time::us(rng.uniform_int(1, 20'000));
    const auto slot = static_cast<std::size_t>(rng.uniform_int(0, kWindow - 1));
    // Half the time, retire the previous occupant of the slot early.
    if (rng.bernoulli(0.5) && window[slot].valid()) {
      cancelled_ok += s.cancel(window[slot]) ? 1 : 0;
    }
    window[slot] =
        s.schedule_in(delay, kSlotCategory[slot & 3], [&fired] { ++fired; });
    // Drain periodically so the queue stays a rolling window, not a spike.
    if ((i & 0x3ff) == 0x3ff) s.run_until(s.now() + sim::Time::us(5'000));
  }
  s.run();
  const double wall = timer.elapsed_sec();

  ScenarioResult r;
  r.name = "churn";
  r.throughput = {s.executed(), wall, s.peak_pending()};
  r.fingerprint = sim::mix_hash(sim::mix_hash(fired, cancelled_ok),
                                static_cast<std::uint64_t>(s.now().count()));
  r.absorbed = s.absorbed();
  r.categories = nonzero_categories(prof);
  return r;
}

// --- timers: periodic-timer storm ------------------------------------------

ScenarioResult bench_timers(std::uint64_t seed, bool batched) {
  constexpr int kTimers = 512;
  constexpr double kSimSeconds = 8.0;

  sim::Simulator s;
  s.set_train_batching(batched);
  sim::KernelProfiler prof;
  prof.enable_timing(true);
  s.set_profiler(&prof);
  sim::Rng rng(seed);
  std::uint64_t ticks = 0;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
  timers.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<sim::PeriodicTimer>(
        s, sim::Time::us(rng.uniform_int(500, 16'000)), [&ticks] { ++ticks; }));
    timers.back()->start_after(sim::Time::us(rng.uniform_int(0, 1'000)));
  }

  sim::WallTimer timer;
  s.run_until(sim::Time::sec(kSimSeconds));
  const double wall = timer.elapsed_sec();
  for (auto& t : timers) t->stop();

  ScenarioResult r;
  r.name = "timers";
  r.throughput = {s.executed(), wall, s.peak_pending()};
  r.fingerprint = sim::mix_hash(ticks, s.executed());
  r.absorbed = s.absorbed();
  r.categories = nonzero_categories(prof);
  return r;
}

// --- radio_N: broadcast scaling --------------------------------------------

ScenarioResult bench_radio(int n_radios, std::uint64_t seed, bool batched,
                           obs::Telemetry* telemetry) {
  constexpr double kSpacingM = 25.0;
  constexpr double kSimSeconds = 3.0;

  // Constant density: arena grows with the node count.
  int cols = 1;
  while (cols * cols < n_radios) ++cols;
  const double arena_side = kSpacingM * static_cast<double>(cols + 1);

  env::Environment::Params params;
  params.arena = {{0, 0}, {arena_side, arena_side}};
  params.medium.batch = batched;
  benchsup::Cell cell(seed, params);
  cell.world().sim().set_train_batching(batched);
  // Attach before nodes exist: components resolve metric handles at
  // construction. Detached below, before the Cell (and its World) dies.
  if (telemetry != nullptr) telemetry->attach(cell.world());
  sim::KernelProfiler prof;
  prof.enable_timing(true);
  cell.world().sim().set_profiler(&prof);

  // Short-range radios so culling by sensitivity radius has teeth.
  phys::DeviceProfile profile = phys::profiles::laptop();
  profile.net.tx_power_dbm = -5.0;

  static constexpr int kChannelPlan[3] = {1, 6, 11};
  std::vector<benchsup::Cell::Node> nodes;
  nodes.reserve(static_cast<std::size_t>(n_radios));
  for (int i = 0; i < n_radios; ++i) {
    const double x = kSpacingM * static_cast<double>(i % cols + 1);
    const double y = kSpacingM * static_cast<double>(i / cols + 1);
    nodes.push_back(cell.add(profile, {x, y}, kChannelPlan[i % 3]));
    nodes.back().stack->join_group(7);
  }

  // Every node multicasts a frame every ~50 ms, phases staggered.
  std::vector<std::unique_ptr<sim::PeriodicTimer>> beacons;
  beacons.reserve(nodes.size());
  sim::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (auto& node : nodes) {
    beacons.push_back(std::make_unique<sim::PeriodicTimer>(
        cell.world().sim(), sim::Time::us(rng.uniform_int(45'000, 55'000)),
        [stack = node.stack] {
          stack->send_multicast(7, 99, 99, std::vector<std::byte>(400));
        }));
    beacons.back()->start_after(sim::Time::us(rng.uniform_int(0, 50'000)));
  }

  sim::WallTimer timer;
  cell.run_until(kSimSeconds);
  const double wall = timer.elapsed_sec();
  for (auto& b : beacons) b->stop();

  const env::MediumStats& ms = cell.environment().medium().stats();
  std::uint64_t fp = sim::mix_hash(ms.transmissions, ms.deliveries_attempted);
  fp = sim::mix_hash(fp, ms.deliveries_decodable);
  fp = sim::mix_hash(fp, ms.losses_sinr);
  fp = sim::mix_hash(fp, ms.losses_half_duplex);
  fp = sim::mix_hash(fp, cell.world().sim().executed());
  for (auto& node : nodes) {
    fp = sim::mix_hash(fp, node.device->radio().frames_received());
  }

  ScenarioResult r;
  r.name = "radio_" + std::to_string(n_radios);
  r.throughput = {cell.world().sim().executed(), wall,
                  cell.world().sim().peak_pending()};
  r.fingerprint = fp;
  r.absorbed = cell.world().sim().absorbed();
  r.categories = nonzero_categories(prof);
  r.has_radio_stats = batched;
  r.radio = cell.environment().medium().batch_stats();
  if (telemetry != nullptr) {
    telemetry->snapshot_kernel(cell.world());
    cell.environment().medium().publish_metrics();
    telemetry->detach(cell.world());
  }
  cell.world().sim().set_profiler(nullptr);
  return r;
}

/// Keeps the faster of `best` and a repeat `r` — wall time on a shared
/// machine is min-stable, not mean-stable. Counts and fingerprints are
/// deterministic, so repeats must agree exactly; a mismatch is a
/// determinism bug worth failing loudly on.
void keep_fastest(ScenarioResult& best, ScenarioResult r) {
  if (r.fingerprint != best.fingerprint) {
    std::fprintf(stderr,
                 "FATAL: %s fingerprint differs between repeats "
                 "(%016llx vs %016llx)\n",
                 r.name.c_str(),
                 static_cast<unsigned long long>(best.fingerprint),
                 static_cast<unsigned long long>(r.fingerprint));
    std::exit(1);
  }
  if (r.throughput.wall_sec < best.throughput.wall_sec) best = std::move(r);
}

struct Pair {
  ScenarioResult scalar;
  ScenarioResult batched;
};

/// Scalar/batched pairs per scenario. Each pair runs its legs back to
/// back, so host drift hits both alike and the per-pair ratio cancels it.
constexpr int kPairs = 7;

/// One scenario's interleaved pairs (scalar first) and, in `best`, each
/// leg's fastest run for the throughput tables.
struct Legs {
  Pair best;
  std::vector<Pair> pairs;
};

template <typename Fn>
Legs interleaved_pairs(Fn&& make) {
  Legs out;
  for (int i = 0; i < kPairs; ++i) out.pairs.push_back({make(false), make(true)});
  out.best = out.pairs.front();
  for (const Pair& p : out.pairs) {
    keep_fastest(out.best.scalar, p.scalar);
    keep_fastest(out.best.batched, p.batched);
  }
  return out;
}

/// Median and quartiles of the per-pair scalar/batched wall ratio.
benchsup::Quartiles pair_speedup(const std::vector<Pair>& pairs) {
  std::vector<double> ratios;
  for (const Pair& p : pairs) {
    if (p.batched.throughput.wall_sec > 0.0) {
      ratios.push_back(p.scalar.throughput.wall_sec /
                       p.batched.throughput.wall_sec);
    }
  }
  return benchsup::quartiles(std::move(ratios));
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint64_t kSeed = 42;
  // The self-gate: the dominant event category of the densest radio
  // scenario must run at least this much faster with batching on, in the
  // median of its kPairs interleaved scalar/batched pairs. The scalar leg
  // is the exhaustive oracle, so the floor covers the range cull as well
  // as the memos and caches.
  constexpr double kGateMinSpeedup = 4.3;
  const std::string kGateScenario = "radio_256";

  // Arguments: `--trace` turns on span capture for the radio scenarios;
  // `--json path` names the artifact (default BENCH_kernel.json); any other
  // argument is a substring filter (`kernel_bench radio` runs only
  // radio_N).
  bool trace = false;
  std::string filter;
  std::string json_path = "BENCH_kernel.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json needs a value\n");
        return 2;
      }
      json_path = argv[++i];
    } else {
      filter = arg;
    }
  }
  const auto wanted = [&](const std::string& name) {
    return filter.empty() || name.find(filter) != std::string::npos;
  };

  std::unique_ptr<obs::Telemetry> telemetry;
  if (trace) telemetry = std::make_unique<obs::Telemetry>();

  // Each scenario: kPairs interleaved pairs, scalar reference leg first.
  std::vector<Legs> measured;
  if (wanted("churn")) {
    measured.push_back(interleaved_pairs(
        [&](bool batched) { return bench_churn(kSeed, batched); }));
  }
  if (wanted("timers")) {
    measured.push_back(interleaved_pairs(
        [&](bool batched) { return bench_timers(kSeed, batched); }));
  }
  for (int n : {8, 64, 256}) {
    if (!wanted("radio_" + std::to_string(n))) continue;
    measured.push_back(interleaved_pairs([&, n](bool batched) {
      return bench_radio(n, kSeed, batched,
                         batched ? telemetry.get() : nullptr);
    }));
  }

  benchsup::table_header("KERNEL microbenchmarks (seed 42, batched leg)",
                         {"scenario", "events", "wall_s", "events/s",
                          "peak_pend", "fingerprint"});
  for (const Legs& m : measured) {
    const ScenarioResult& r = m.best.batched;
    benchsup::table_row(r.name, static_cast<double>(r.throughput.events),
                        r.throughput.wall_sec, r.throughput.events_per_sec(),
                        static_cast<double>(r.throughput.peak_pending),
                        benchsup::hex64(r.fingerprint));
  }

  benchsup::table_header("batching vs scalar reference",
                         {"scenario", "scalar_s", "batched_s", "speedup",
                          "q1-q3", "absorbed"});
  for (const Legs& m : measured) {
    const Pair& p = m.best;
    const benchsup::Quartiles sp = pair_speedup(m.pairs);
    char spread[32];
    std::snprintf(spread, sizeof spread, "%.2f-%.2f", sp.q1, sp.q3);
    benchsup::table_row(p.batched.name, p.scalar.throughput.wall_sec,
                        p.batched.throughput.wall_sec, sp.median,
                        std::string(spread),
                        static_cast<double>(p.batched.absorbed));
  }

  // --- gates ----------------------------------------------------------------
  benchsup::Gates gates;
  std::string gate_category;
  auto doc = benchsup::Json::object();
  doc.set("bench", "kernel");
  doc.set("seed", kSeed);
  auto arr = benchsup::Json::array();
  for (const Legs& m : measured) {
    const Pair& p = m.best;
    const ScenarioResult& r = p.batched;
    // Batching is a pure mechanical optimization: both legs bit-identical.
    gates.equal(r.name + ".fingerprint", {p.scalar.fingerprint, r.fingerprint});
    // Every executed event lands in one profiler category, and the kernel's
    // train-absorbed count splits them exactly: absorbed (kernel) plus
    // dispatched (profiler: executed - absorbed per category) is every
    // event, and no category absorbs more than it executed.
    std::int64_t categorized = 0, dispatched = 0, overabsorbed = 0;
    for (const CatStats& c : r.categories) {
      categorized += static_cast<std::int64_t>(c.executed);
      dispatched += static_cast<std::int64_t>(c.executed - c.absorbed);
      overabsorbed += c.absorbed > c.executed ? 1 : 0;
    }
    const auto events = static_cast<std::int64_t>(r.throughput.events);
    gates.check(r.name + ".events", static_cast<double>(events),
                benchsup::Op::kGe, 1);
    gates.check(r.name + ".uncategorized_events",
                static_cast<double>(events - categorized), benchsup::Op::kEq,
                0);
    gates.check(r.name + ".event_split_gap",
                static_cast<double>(static_cast<std::int64_t>(r.absorbed) +
                                    dispatched - events),
                benchsup::Op::kEq, 0);
    gates.check(r.name + ".overabsorbed_categories",
                static_cast<double>(overabsorbed), benchsup::Op::kEq, 0);
    if (r.has_radio_stats) {
      gates.check(r.name + ".radio_queries",
                  static_cast<double>(r.radio.queries), benchsup::Op::kGe, 1);
    }

    auto obj = benchsup::Json::object();
    obj.set("scenario", r.name);
    obj.set("events", r.throughput.events);
    obj.set("wall_sec", r.throughput.wall_sec);
    obj.set("events_per_sec", r.throughput.events_per_sec());
    obj.set("peak_pending", r.throughput.peak_pending);
    obj.set("fingerprint", benchsup::hex64(r.fingerprint));
    auto cats = benchsup::Json::object();
    for (const CatStats& c : r.categories) cats.set(c.name, c.executed);
    obj.set("categories", std::move(cats));

    auto batching = benchsup::Json::object();
    batching.set("scalar_wall_sec", p.scalar.throughput.wall_sec);
    // Median per-pair wall ratio; the quartiles are its noise.
    const benchsup::Quartiles sp = pair_speedup(m.pairs);
    batching.set("speedup", sp.median);
    auto sp_noise = benchsup::Json::object();
    sp_noise.set("pairs", static_cast<std::uint64_t>(m.pairs.size()));
    sp_noise.set("q1", sp.q1);
    sp_noise.set("q3", sp.q3);
    batching.set("speedup_noise", std::move(sp_noise));
    batching.set("absorbed", r.absorbed);
    batching.set("dispatched", static_cast<std::int64_t>(dispatched));
    auto per_cat = benchsup::Json::array();
    for (const CatStats& c : r.categories) {
      const CatStats* sc = find_category(p.scalar, c.name);
      auto co = benchsup::Json::object();
      co.set("category", c.name);
      co.set("executed", c.executed);
      co.set("absorbed", c.absorbed);
      co.set("wall_sec", c.wall_sec);
      co.set("scalar_wall_sec", sc != nullptr ? sc->wall_sec : 0.0);
      co.set("speedup",
             (sc != nullptr && c.wall_sec > 0.0) ? sc->wall_sec / c.wall_sec
                                                 : 0.0);
      per_cat.push(std::move(co));
    }
    batching.set("per_category", std::move(per_cat));
    if (r.has_radio_stats) {
      auto rs = benchsup::Json::object();
      rs.set("resolve_calls", r.radio.resolve_calls);
      rs.set("queries", r.radio.queries);
      rs.set("memo_hits", r.radio.memo_hits);
      rs.set("memo_misses", r.radio.memo_misses);
      rs.set("fallback_queries", r.radio.fallback_queries);
      rs.set("sweep_hits", r.radio.sweep_hits);
      rs.set("sweep_misses", r.radio.sweep_misses);
      rs.set("cca_hits", r.radio.cca_hits);
      rs.set("cca_misses", r.radio.cca_misses);
      batching.set("radio", std::move(rs));
    }

    if (r.name == kGateScenario) {
      // Dominant: the most callback wall time on the scalar (reference)
      // leg, so the choice does not depend on the optimization under test.
      const CatStats* sc = nullptr;
      for (const CatStats& c : p.scalar.categories) {
        if (sc == nullptr || c.wall_sec > sc->wall_sec) sc = &c;
      }
      if (sc != nullptr) gate_category = sc->name;
      // Same executed count both legs (fingerprints match), so each pair's
      // throughput ratio reduces to the wall ratio of the category's
      // callbacks.
      std::vector<double> ratios;
      for (const Pair& gp : m.pairs) {
        const CatStats* s = find_category(gp.scalar, gate_category);
        const CatStats* b = find_category(gp.batched, gate_category);
        if (s == nullptr || b == nullptr || b->wall_sec <= 0.0 ||
            s->executed != b->executed) {
          ratios.clear();
          break;
        }
        ratios.push_back(s->wall_sec / b->wall_sec);
      }
      if (ratios.empty()) {
        gates.fail("gate category '" + gate_category +
                   "' missing or inconsistent in " + kGateScenario);
      } else {
        gates.timing(kGateScenario + ".dominant_category_speedup", ratios,
                     benchsup::Op::kGe, kGateMinSpeedup);
      }
      batching.set("dominant_category", gate_category);
    }
    obj.set("batching", std::move(batching));
    arr.push(std::move(obj));
  }
  doc.set("scenarios", std::move(arr));

  if (telemetry) {
    const bool ok =
        obs::write_chrome_trace(telemetry->spans(), "kernel_trace.json") &&
        obs::write_jsonl(telemetry->spans(), "kernel_spans.jsonl") &&
        obs::write_metrics_json(telemetry->metrics(), "kernel_metrics.json");
    if (!ok) gates.fail("failed to write trace artifacts");
    std::printf(
        "wrote kernel_trace.json (Perfetto), kernel_spans.jsonl, "
        "kernel_metrics.json (%llu spans, %llu dropped)\n",
        static_cast<unsigned long long>(telemetry->spans().records().size()),
        static_cast<unsigned long long>(telemetry->spans().dropped()));
  }
  return gates.finish(doc, json_path);
}

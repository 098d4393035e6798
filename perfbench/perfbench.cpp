// Scenario-fleet benchmark: whole-run host time of three library scenarios,
// split along the five LPC layers. perfbench/README.md explains the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
// Drives only public entry points: scn::compile_file -> scn::decode ->
// scn::run_fleet for the timed runs, and ScenarioInstance + a
// sim::KernelProfiler for the separate serial passes that give the
// per-layer numbers. Every run prints a host stamp, a table of every metric
// with its unit, and, as its last line, one JSON object:
//   {"correct": bool, "attempted": shards, "failed": shards, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1).
//
//   perfbench --workload stadium_dense --seed 2026 --seconds 20 --trace 0
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/export.hpp"
#include "obs/span.hpp"
#include "scn/blob.hpp"
#include "scn/compiler.hpp"
#include "scn/runtime.hpp"
#include "sim/fleet.hpp"
#include "sim/profiler.hpp"
#include "sim/simd.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace aroma;
using Clock = std::chrono::steady_clock;
using sim::EventCategory;

constexpr std::uint64_t kDefaultSeed = 2026;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workloads ---------------------------------------------------------------

/// Behaviour outputs of a whole fleet at kDefaultSeed. Pinned instead of
/// raw fingerprints, which also hash the executed-event count.
struct Pin {
  std::size_t shards;
  std::uint64_t pings;
  std::uint64_t goals_succeeded;
};

struct Workload {
  const char* name;
  const char* scenario;  // file under the scenario directory
  std::size_t shards;
  std::size_t max_workers;  // min(this, usable cores) workers
  std::vector<Pin> pins;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"stadium_dense", "stadium.scn", 8, 1, {{1, 1830, 0}, {8, 14345, 0}}},
      {"projector_fleet",
       "smart_projector.scn",
       1024,
       4,
       {{1, 0, 1}, {1024, 165671, 952}}},
      {"ward_telemetry", "hospital_ward.scn", 32, 1, {{1, 540, 1}, {32, 25200, 31}}},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

// --- host stamp --------------------------------------------------------------

std::size_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string build_type() {
  std::string s;
#if defined(__OPTIMIZE__)
  s = "optimized";
#else
  s = "unoptimized";
#endif
#if defined(NDEBUG)
  s += ", NDEBUG";
#else
  s += ", asserts on";
#endif
  return s;
}

// --- measurement -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Index of the median element (lower median for even counts).
std::size_t median_index(const std::vector<double>& v) {
  std::vector<std::size_t> idx(v.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&v](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return idx[(idx.size() - 1) / 2];
}

/// Peak resident set of this process image, in MB. VmHWM starts afresh at
/// exec; getrusage's ru_maxrss also keeps the high-water mark of the image
/// that exec'd this one (a Python launcher, say), so it is only a fallback.
double peak_rss_mb() {
  long kb = -1;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f))
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    std::fclose(f);
  }
  if (kb <= 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kb = ru.ru_maxrss;
  }
  return static_cast<double>(kb) / 1024.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct CategoryTotals {
  std::uint64_t events = 0;
  std::uint64_t absorbed = 0;
  double self_s = 0.0;
};
using Ledger = std::array<CategoryTotals, sim::kEventCategoryCount>;

/// One shard of a serial pass: ScenarioInstance built and run on this
/// thread, the same work one run_fleet task does.
struct ShardRun {
  std::uint64_t fp = 0;
  double task_s = 0.0;  // build + run + fingerprint + teardown
  double run_s = 0.0;   // ScenarioInstance::run only
  double sim_s = 0.0;   // final world().now()
  std::uint64_t events = 0, absorbed = 0, cancelled = 0, pings = 0;
  std::size_t peak_pending = 0;
  std::uint64_t arena_peak_bytes = 0;
  bool goal_ok = false;
  bool threw = false;
};

struct SerialPass {
  std::vector<ShardRun> shards;
  double wall_s = 0.0;
  Ledger ledger{};  // traced passes only
};

/// Spans of the benchmark's own code, on a host-time clock (ns since the
/// benchmark started). One "shard" root per shard is that shard's trace id.
/// The Chrome-trace exporter draws one track per LPC layer; these spans
/// all go on one track so build/run nest under their shard.
constexpr lpc::Layer kSpanTrack = lpc::Layer::kAbstract;

class HostSpans {
 public:
  explicit HostSpans(Clock::time_point origin) : origin_(origin) {}
  obs::SpanId begin(std::string_view name, obs::SpanId parent = 0) {
    return tracer_.begin(now(), name, kSpanTrack, parent);
  }
  void end(obs::SpanId id) { tracer_.end(id, now()); }
  void annotate(obs::SpanId id, std::string_view key, std::string_view value) {
    tracer_.annotate(id, key, value);
  }
  bool write(const std::string& path) const {
    return obs::write_chrome_trace(tracer_, path);
  }

 private:
  sim::Time now() const {
    return sim::Time::ns(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - origin_)
                             .count());
  }
  Clock::time_point origin_;
  obs::SpanTracer tracer_;
};

SerialPass serial_pass(const scn::Scenario& scenario, std::size_t shards,
                       std::uint64_t seed, bool traced, HostSpans* spans) {
  SerialPass pass;
  pass.shards.resize(shards);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < shards; ++k) {
    ShardRun& r = pass.shards[k];
    const obs::SpanId root =
        spans ? spans->begin("shard") : 0;
    if (spans) spans->annotate(root, "shard", std::to_string(k));
    sim::KernelProfiler profiler;
    profiler.enable_timing(true);
    const Clock::time_point ts = Clock::now();
    try {
      const obs::SpanId build =
          spans ? spans->begin("build", root) : 0;
      scn::ScenarioInstance inst(scenario, k, sim::shard_seed(seed, k));
      if (spans) spans->end(build);
      if (traced) inst.world().sim().set_profiler(&profiler);
      const obs::SpanId run =
          spans ? spans->begin("run", root) : 0;
      const Clock::time_point tr = Clock::now();
      inst.run();
      r.run_s = since(tr);
      if (spans) spans->end(run);
      inst.world().sim().set_profiler(nullptr);
      r.fp = inst.fingerprint();
      r.sim_s = inst.world().now().seconds();
      r.events = inst.events();
      r.absorbed = inst.absorbed();
      r.cancelled = inst.world().sim().cancelled();
      r.pings = inst.pings();
      r.peak_pending = inst.world().sim().peak_pending();
      r.arena_peak_bytes = inst.world().arena().high_water().peak_bytes;
      r.goal_ok = inst.outcome().success;
      if (spans) spans->annotate(run, "events", std::to_string(r.events));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: shard %zu threw: %s\n", k, e.what());
      r.threw = true;
    }
    r.task_s = since(ts);
    if (spans) spans->end(root);
    if (traced) {
      for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
        const auto& s = profiler.stats(static_cast<EventCategory>(c));
        pass.ledger[c].events += s.executed;
        pass.ledger[c].absorbed += s.absorbed;
        pass.ledger[c].self_s += s.wall_sec;
      }
    }
  }
  pass.wall_s = since(t0);
  return pass;
}

struct SetupSample {
  double compile_s = 0, decode_s = 0, build_s = 0;
  std::size_t blob_bytes = 0;
  double total() const { return compile_s + decode_s + build_s; }
};

/// `.scn` text -> ready worlds: compile, decode and construct every shard's
/// ScenarioInstance. Instances are torn down one at a time outside the
/// timer so set-up memory stays at one world.
SetupSample setup_once(const std::string& path, std::size_t shards,
                       std::uint64_t seed, HostSpans* spans) {
  SetupSample s;
  Clock::time_point t = Clock::now();
  obs::SpanId id = spans ? spans->begin("compile") : 0;
  const std::vector<std::uint8_t> blob = scn::compile_file(path);
  s.compile_s = since(t);
  if (spans) spans->end(id);
  s.blob_bytes = blob.size();

  t = Clock::now();
  id = spans ? spans->begin("decode") : 0;
  const scn::Scenario scenario = scn::decode(blob);
  s.decode_s = since(t);
  if (spans) spans->end(id);

  for (std::size_t k = 0; k < shards; ++k) {
    t = Clock::now();
    auto inst = std::make_unique<scn::ScenarioInstance>(
        scenario, k, sim::shard_seed(seed, k));
    s.build_s += since(t);
  }
  return s;
}

struct FleetSample {
  double run_s = 0.0;
  scn::FleetResult result;
  bool threw = false;
};

FleetSample timed_fleet(const scn::Scenario& scenario, std::size_t shards,
                        std::uint64_t seed, std::size_t workers) {
  FleetSample f;
  const Clock::time_point t0 = Clock::now();
  try {
    f.result = scn::run_fleet(scenario, shards, seed, workers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run_fleet threw: %s\n", e.what());
    f.threw = true;
  }
  f.run_s = since(t0);
  return f;
}

// --- correctness -------------------------------------------------------------

/// Failed shards, by shard index. A shard fails if it throws or if its
/// fingerprint differs between two passes over the same inputs; the whole
/// fleet fails if its behaviour outputs miss the pinned values.
class Failures {
 public:
  explicit Failures(std::size_t shards) : failed_(shards, false) {}
  void shard(std::size_t k, const std::string& why) {
    if (!failed_[k]) note(why);
    failed_[k] = true;
  }
  void all(const std::string& why) {
    note(why);
    std::fill(failed_.begin(), failed_.end(), true);
  }
  std::size_t count() const {
    return static_cast<std::size_t>(
        std::count(failed_.begin(), failed_.end(), true));
  }

  void check_pass(const SerialPass& p) {
    for (std::size_t k = 0; k < p.shards.size(); ++k)
      if (p.shards[k].threw) shard(k, "shard " + std::to_string(k) + " threw");
  }
  /// Worker-count invariance: a run_fleet at `workers` must reproduce the
  /// serial pass shard by shard.
  void check_fleet(const FleetSample& f, const SerialPass& ref,
                   const char* ref_name) {
    if (f.threw || f.result.shard_fps.size() != ref.shards.size()) {
      all("run_fleet failed");
      return;
    }
    std::uint64_t pings = 0, goals = 0;
    for (std::size_t k = 0; k < ref.shards.size(); ++k) {
      pings += ref.shards[k].pings;
      goals += ref.shards[k].goal_ok ? 1 : 0;
      if (f.result.shard_fps[k] != ref.shards[k].fp)
        shard(k, "shard " + std::to_string(k) +
                     " fingerprint differs between the timed run and the " +
                     ref_name + " pass");
    }
    if (f.result.pings != pings || f.result.goals_succeeded != goals)
      all(std::string("fleet outputs differ from the ") + ref_name + " pass");
  }

  const std::vector<std::string>& notes() const { return notes_; }

 private:
  void note(const std::string& why) {
    if (notes_.size() < 8 &&
        std::find(notes_.begin(), notes_.end(), why) == notes_.end())
      notes_.push_back(why);
  }
  std::vector<bool> failed_;
  std::vector<std::string> notes_;
};

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples = 1;  // 1 for exact counts
  double q1 = 0.0, q3 = 0.0;  // quartiles when samples > 1
};

/// Quartile by the exclusive method (Python's statistics.quantiles).
double quartile(const std::vector<double>& sorted, int which) {
  const double pos = (static_cast<double>(sorted.size()) + 1.0) * which / 4.0;
  const auto j = static_cast<std::size_t>(pos);
  if (j < 1) return sorted.front();
  if (j >= sorted.size()) return sorted.back();
  return sorted[j - 1] + (pos - static_cast<double>(j)) * (sorted[j] - sorted[j - 1]);
}

/// A timing reported as its median, with quartiles and sample count.
Metric sampled(std::string name, std::vector<double> v, std::string unit) {
  std::sort(v.begin(), v.end());
  Metric m{std::move(name), median(v), std::move(unit), v.size()};
  if (v.size() > 1) {
    m.q1 = quartile(v, 1);
    m.q3 = quartile(v, 3);
  }
  return m;
}

std::string num(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) v = 0.0;  // JSON has no NaN/inf
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_table(const std::vector<Metric>& ms) {
  std::vector<std::array<std::string, 6>> rows = {
      {"metric", "value", "unit", "samples", "q1", "q3"}};
  for (const Metric& m : ms) {
    const bool q = m.samples > 1;
    rows.push_back({m.name, num(m.value), m.unit, std::to_string(m.samples),
                    q ? num(m.q1) : "-", q ? num(m.q3) : "-"});
  }
  std::array<std::size_t, 6> w{};
  for (const auto& r : rows)
    for (std::size_t c = 0; c < w.size(); ++c) w[c] = std::max(w[c], r[c].size());
  for (const auto& r : rows) {
    std::printf("%-*s  %*s  %-*s  %*s  %*s  %*s\n", int(w[0]), r[0].c_str(),
                int(w[1]), r[1].c_str(), int(w[2]), r[2].c_str(), int(w[3]),
                r[3].c_str(), int(w[4]), r[4].c_str(), int(w[5]), r[5].c_str());
  }
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& ms) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}}";
}

/// Block names of the per-category metrics, indexed by EventCategory.
constexpr std::array<const char*, sim::kEventCategoryCount> kBlock = {
    "unstamped", "scn.traffic", "phys.mac",  "env.radio",
    "net.stream", "disco.lease", "disco.discovery", "rfb",
    "diag",      "app",         "other"};

/// The ROADMAP's category -> LPC layer map. kTimer re-arms drive the
/// scenario's own traffic generators (application load); kNone is today
/// mostly user agents; kDiag probes resources; kOther is kernel upkeep.
enum LedgerRow { kEnv, kPhys, kRes, kAbs, kInt, kKernel, kRows };
constexpr std::array<LedgerRow, sim::kEventCategoryCount> kLayerOf = {
    kInt, kAbs, kPhys, kEnv, kRes, kRes, kRes, kAbs, kRes, kAbs, kKernel};
constexpr std::array<const char*, kRows> kRowName = {
    "lpc.environment.share", "lpc.physical.share", "lpc.resource.share",
    "lpc.abstract.share",    "lpc.intentional.share", "lpc.kernel.share"};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  std::string scenario_dir = "scenarios";
  std::string trace_out;
  std::optional<std::size_t> shards;
  bool corrupt_pin = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scenario-dir DIR] "
               "[--trace-out FILE] [--shards N] [--corrupt-pin]\n"
               "workloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    auto count = [&]() -> std::size_t {
      const std::string v = value();
      std::size_t n = 0;
      const auto r = std::from_chars(v.data(), v.data() + v.size(), n);
      if (r.ec != std::errc() || r.ptr != v.data() + v.size())
        usage("bad number");
      return n;
    };
    if (a == "--workload") {
      o.workload = find_workload(value());
      if (o.workload == nullptr) usage("unknown workload");
    } else if (a == "--seed") {
      o.seed = count();
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(count());
    } else if (a == "--trace") {
      o.trace = count() != 0;
    } else if (a == "--scenario-dir") {
      o.scenario_dir = value();
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--shards") {
      o.shards = count();
    } else if (a == "--corrupt-pin") {
      o.corrupt_pin = true;
    } else {
      usage("unknown argument");
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  if (o.shards && *o.shards == 0) usage("--shards must be positive");
  return o;
}

int run_benchmark(const Options& opt) {
  const Clock::time_point origin = Clock::now();
  const Workload& w = *opt.workload;
  const std::size_t shards = opt.shards.value_or(w.shards);
  const std::size_t cores = usable_cores();
  const std::size_t workers = std::min({shards, w.max_workers, cores});
  const std::string path = opt.scenario_dir + "/" + w.scenario;

  std::printf("perfbench %s  seed %llu  trace %d  seconds %g\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              opt.seconds);
  std::printf("host: cores=%zu cpu=\"%s\" compiler=\"%s\" build=\"%s\" "
              "simd=%s\n",
              cores, cpu_model().c_str(), compiler().c_str(),
              build_type().c_str(), sim::simd::kBackend);
  std::printf("workload: scenario=%s shards=%zu workers=%zu\n", path.c_str(),
              shards, workers);
  std::printf("model: unvalidated, no reference (the paper publishes no "
              "measurements); no accuracy figure is given\n");
  std::fflush(stdout);

  scn::Scenario scenario;
  try {
    scenario = scn::decode(scn::compile_file(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: cannot compile %s: %s\n", path.c_str(),
                 e.what());
    return 2;
  }

  Failures failures(shards);

  // Pinned behaviour outputs at the default seed, checked on every fleet
  // size this run executes there: a one-shard probe always, and the timed
  // fleet itself when --seed is the default.
  auto check_pin = [&](const FleetSample& f, std::size_t n) {
    const auto pin = std::find_if(w.pins.begin(), w.pins.end(),
                                  [n](const Pin& p) { return p.shards == n; });
    if (pin == w.pins.end()) return;
    const std::uint64_t want_pings = pin->pings + (opt.corrupt_pin ? 1 : 0);
    if (f.threw || f.result.pings != want_pings ||
        f.result.goals_succeeded != pin->goals_succeeded)
      failures.all("pinned outputs of " + std::to_string(n) +
                   " shards at seed 2026: got pings " +
                   std::to_string(f.result.pings) + " goals " +
                   std::to_string(f.result.goals_succeeded) + ", pinned " +
                   std::to_string(want_pings) + " / " +
                   std::to_string(pin->goals_succeeded));
  };
  check_pin(timed_fleet(scenario, 1, kDefaultSeed, 1), 1);

  std::vector<Metric> metrics;
  const Clock::time_point start = Clock::now();
  auto time_left = [&] { return since(start) < opt.seconds; };

  if (!opt.trace) {
    // Untimed serial pass: warms the process (code pages, allocator) and is
    // the reference for simulated seconds and per-shard fingerprints.
    const SerialPass ref = serial_pass(scenario, shards, opt.seed, false, nullptr);
    failures.check_pass(ref);
    double sim_s = 0.0;
    for (const ShardRun& r : ref.shards) sim_s += r.sim_s;

    std::vector<double> run_s, setup_s;
    do {
      // Several set-ups per round: set-up is short and noisy on its own.
      const Clock::time_point ts = Clock::now();
      do {
        setup_s.push_back(setup_once(path, shards, opt.seed, nullptr).total());
      } while (since(ts) < 0.2);
      const FleetSample f = timed_fleet(scenario, shards, opt.seed, workers);
      failures.check_fleet(f, ref, "serial");
      if (opt.seed == kDefaultSeed) check_pin(f, shards);
      run_s.push_back(f.run_s);
    } while (time_left() || run_s.size() < 3);

    std::vector<double> rate;
    for (const double r : run_s) rate.push_back(ratio(sim_s, r));
    metrics = {
        sampled("run_s", run_s, "s"),
        sampled("sim_s_per_wall_s", rate, "s/s"),
        sampled("setup_s", setup_s, "s"),
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    // Rounds of: set-up with phase timings, untraced serial pass, traced
    // serial pass (KernelProfiler timing on), timed fleet. The first traced
    // pass records spans.
    HostSpans spans(origin);
    std::vector<double> compile_s, decode_s, build_s, run_s, serial_s,
        traced_s, overhead;
    std::vector<SerialPass> serials, traceds;
    std::size_t blob_bytes = 0;
    do {
      const bool first = serials.empty();
      const SetupSample s =
          setup_once(path, shards, opt.seed, first ? &spans : nullptr);
      compile_s.push_back(s.compile_s);
      decode_s.push_back(s.decode_s);
      build_s.push_back(s.build_s);
      blob_bytes = s.blob_bytes;

      serials.push_back(serial_pass(scenario, shards, opt.seed, false, nullptr));
      traceds.push_back(serial_pass(scenario, shards, opt.seed, true,
                                    first ? &spans : nullptr));
      failures.check_pass(serials.back());
      failures.check_pass(traceds.back());
      const FleetSample f = timed_fleet(scenario, shards, opt.seed, workers);
      failures.check_fleet(f, traceds.back(), "traced");
      failures.check_fleet(f, serials.back(), "serial");
      if (opt.seed == kDefaultSeed) check_pin(f, shards);
      run_s.push_back(f.run_s);
      serial_s.push_back(serials.back().wall_s);
      double traced_run = 0.0;
      for (const ShardRun& r : traceds.back().shards) traced_run += r.run_s;
      traced_s.push_back(traced_run);
      overhead.push_back(traceds.back().wall_s / serials.back().wall_s - 1.0);
    } while (time_left());

    const std::size_t round = median_index(traced_s);
    const SerialPass& serial = serials[median_index(serial_s)];
    const SerialPass& traced = traceds[round];

    std::uint64_t events = 0, absorbed = 0, cancelled = 0, pings = 0;
    std::uint64_t goals = 0, arena_peak = 0;
    std::size_t peak_pending = 0;
    double untraced_run = 0.0, task_sum = 0.0;
    std::vector<double> task_s;
    for (const ShardRun& r : serial.shards) {
      events += r.events;
      absorbed += r.absorbed;
      cancelled += r.cancelled;
      pings += r.pings;
      goals += r.goal_ok ? 1 : 0;
      arena_peak = std::max(arena_peak, r.arena_peak_bytes);
      peak_pending = std::max(peak_pending, r.peak_pending);
      untraced_run += r.run_s;
      task_sum += r.task_s;
      task_s.push_back(r.task_s);
    }
    double category_s = 0.0;
    for (const CategoryTotals& c : traced.ledger) category_s += c.self_s;
    // Kernel upkeep is the run time outside every callback. It is taken
    // against the untraced pass of the same round, so the profiler's clock
    // reads between callbacks (trace.overhead) are not booked as kernel time.
    double round_run = 0.0;
    for (const ShardRun& r : serials[round].shards) round_run += r.run_s;
    const double kernel_self_s = std::max(0.0, round_run - category_s);

    const auto cat = [&](EventCategory c) -> const CategoryTotals& {
      return traced.ledger[static_cast<std::size_t>(c)];
    };
    const double d = static_cast<double>(events);
    metrics = {
        sampled("scn.compile_s", compile_s, "s"),
        sampled("scn.decode_s", decode_s, "s"),
        sampled("scn.build_s", build_s, "s"),
        {"scn.blob_bytes", static_cast<double>(blob_bytes), "bytes"},
        {"sim.events", d, "count"},
        {"sim.absorbed_ratio", ratio(static_cast<double>(absorbed), d), "ratio"},
        {"sim.cancelled", static_cast<double>(cancelled), "count"},
        {"sim.peak_pending", static_cast<double>(peak_pending), "count"},
        {"sim.self_s", kernel_self_s, "s"},
        {"sim.ns_per_event", ratio(untraced_run * 1e9, d), "ns"},
        {"sim.arena.peak_bytes", static_cast<double>(arena_peak), "bytes"},
        {"fleet.efficiency",
         ratio(task_sum, static_cast<double>(workers) * median(run_s)),
         "ratio"},
        sampled("fleet.shard_s.p50", task_s, "s"),
        {"fleet.shard_s.max", *std::max_element(task_s.begin(), task_s.end()),
         "s"},
    };
    for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
      const CategoryTotals& t = traced.ledger[c];
      const std::string b = kBlock[c];
      metrics.push_back({b + ".events", static_cast<double>(t.events), "count"});
      metrics.push_back(
          {b + ".absorbed", static_cast<double>(t.absorbed), "count"});
      metrics.push_back({b + ".self_s", t.self_s, "s"});
      metrics.push_back({b + ".ns_per_event",
                         ratio(t.self_s * 1e9, static_cast<double>(t.events)),
                         "ns"});
    }
    metrics.push_back(
        {"phys.mac.events_per_frame",
         ratio(static_cast<double>(cat(EventCategory::kMac).events),
               static_cast<double>(cat(EventCategory::kRadio).events)),
         "ratio"});
    std::array<double, kRows> rows{};
    for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c)
      rows[kLayerOf[c]] += traced.ledger[c].self_s;
    rows[kKernel] += kernel_self_s;
    const double ledger_s = category_s + kernel_self_s;
    for (std::size_t r = 0; r < kRows; ++r)
      metrics.push_back({kRowName[r], ratio(rows[r], ledger_s), "ratio"});
    metrics.push_back({"net.pings", static_cast<double>(pings), "count"});
    metrics.push_back(
        {"app.goal_success_ratio",
         scenario.goals.empty()
             ? 0.0
             : ratio(static_cast<double>(goals), static_cast<double>(shards)),
         "ratio"});
    metrics.push_back(sampled("trace.overhead", overhead, "ratio"));
    metrics.push_back({"failed_frac",
                       ratio(static_cast<double>(failures.count()),
                             static_cast<double>(shards)),
                       "ratio"});

    if (!opt.trace_out.empty()) {
      if (spans.write(opt.trace_out))
        std::printf("spans: %s\n", opt.trace_out.c_str());
      else
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.trace_out.c_str());
    }
  }

  const std::size_t failed = failures.count();
  print_table(metrics);
  std::printf("failed_frac %s (%zu of %zu shards)\n",
              num(ratio(double(failed), double(shards))).c_str(), failed,
              shards);
  for (const std::string& n : failures.notes())
    std::printf("failure: %s\n", n.c_str());
  std::printf("%s\n", result_json(failed == 0, shards, failed, metrics).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(PERFBENCH_SANITIZED)
  std::fprintf(stderr,
               "perfbench: refusing to record numbers from a sanitizer "
               "build\n");
  return 3;
#endif
  const Options opt = parse(argc, argv);
  try {
    return run_benchmark(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

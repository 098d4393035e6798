// OBS — always-on observability plane benchmark.
//
// The plane (obs/flight.hpp + obs/watchdog.hpp + obs/sampler.hpp) rides the
// kernel's observation-only trace slot, so it must be cheap enough to leave
// on everywhere and must never perturb the run. This bench proves both, at
// fleet scale on the compiled scenarios/smart_projector.scn, and exercises
// the black-box workflow end to end:
//
//  * perturbation sweep: for each shard count, a telemetry fleet runs with
//    the plane detached and attached (flight recorder + watchdogs +
//    sampler on every shard). The fleet fingerprints must be bit-identical,
//  * overhead gate: a fixed 64-shard gate fleet runs 7 interleaved
//    plane-off/plane-on pairs, each one pass with the plane-off leg first
//    and one with it second; the median pair's wall-clock overhead must
//    stay under --max-overhead percent (default 3),
//  * latency percentiles: the plane-on fleet's HDR histograms (discovery
//    lookup, RFB update delivery, MAC service time, stream RTT) merge in
//    shard order into one registry; p50/p99/p999 land in the JSON and the
//    merged registry is exported as the "obs" section of BENCH_metrics.json.
//    Host-side shard wall times feed a fleet.shard.wall_us histogram,
//  * fault legs: one shard runs to the mid-meeting checkpoint, hands the
//    blob to its flight recorder, then a fault is injected — a runaway
//    zero-delay event chain (sim-time stall) in one leg, an RF jammer on
//    the room's channel (retry storm) in the other. The matching watchdog
//    must fire, its dump hook captures the black box, and a fresh instance
//    restored from the dump's embedded checkpoint — with a ReplayHarness
//    attached and the same injection re-applied — must execute the exact
//    (when, id, seq) event the dump identifies as the last kernel event
//    before the fire. The stall leg's span timeline + sampler tracks are
//    exported as a Perfetto/Chrome trace, and its dump is written to disk.
//
// Output lands in BENCH_obs.json, every gate one record of the schema in
// bench/common.hpp. Exit status is nonzero when any fingerprint drifts, the
// overhead gate misses, a latency track is empty, a watchdog stays silent,
// or a replay fails to reach the faulting event.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "diag/faults.hpp"
#include "env/environment.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/hdr.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"
#include "scn/blob.hpp"
#include "scn/compiler.hpp"
#include "scn/runtime.hpp"
#include "sim/fleet.hpp"
#include "sim/world.hpp"
#include "snap/replay.hpp"

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

constexpr aroma::scn::RunOptions kTelemetry{.telemetry = true};

// The full plane on one shard: flight recorder on the kernel trace slot,
// watchdogs and sampler chained behind it, span edges forwarded from the
// tracer. Construct after the instance and destroy before it; the
// destructor detaches everything it attached.
struct Plane {
  aroma::obs::FlightRecorder rec;
  aroma::obs::WatchdogSet dogs;
  aroma::obs::TimeseriesSampler sampler;
  ScenarioInstance& room;

  // The fleet-wide always-on configuration keeps the ring small enough to
  // stay L1-resident next to the sim's own hot set, samples at a coarse
  // 4 s, and widens the watchdog window to 1 s: on a shard whose whole
  // pass is ~1 ms of CPU, every periodic touch of cold plane state evicts
  // sim cache lines, so the always-on profile buys headroom with cadence,
  // not coverage. The fault legs trade all of that back for a deeper ring
  // and a finer timeline.
  static constexpr std::size_t kFleetRing = 1 << 6;
  static constexpr std::size_t kDeepRing = 1 << 12;
  static constexpr double kFleetSamplePeriodSec = 4.0;
  static aroma::obs::WatchdogOptions fleet_watchdogs() {
    aroma::obs::WatchdogOptions w;
    w.window = Time::sec(1.0);
    return w;
  }

  Plane(ScenarioInstance& r, std::uint32_t shard, std::size_t capacity,
        Time sample_period, aroma::obs::WatchdogOptions wopts = {})
      : rec(capacity, shard),
        dogs(r.world(), wopts),
        sampler(r.telemetry()->metrics(),
                aroma::obs::TimeseriesSampler::Options{sample_period,
                                                       1 << 12}),
        room(r) {
    rec.set_watchdogs(&dogs);
    rec.set_sampler(&sampler);
    dogs.set_recorder(&rec);
    sampler.set_recorder(&rec);
    rec.attach(r.world().sim());
    rec.set_span_source(&r.telemetry()->spans());
  }
  ~Plane() { rec.detach(room.world().sim()); }
};

// The mid-meeting capture target. Every smart_projector shard's meeting
// runs at least 45..55 s, so 50 s is inside the steady state for all of
// them; the actual capture instant is the first quiescent point at or
// after it.
constexpr double kCheckpointAtSec = 50.0;
constexpr std::size_t kFaultShard = 1;

// One paired fleet pass: each shard runs its plane-off leg and its plane-on
// leg back to back on the same worker, so both legs see the same machine
// regime (frequency scaling, co-tenant cache pressure) and the off/on
// delta survives a noisy host — legs separated by a whole fleet pass do
// not. `on_first` swaps the leg order (see the overhead gate). The timed
// window is the meeting phase only, identical in both legs: construction
// and warmup (where the plane is never attached) would dilute the
// measurement, and plane boot — the first sample builds the metric tracks
// — is a per-shard-lifetime cost a real fleet pays once at deploy, not an
// operating cost. When `merged` is given, each shard's plane-on kernel
// counters are snapshotted and its registry (HDRs included) merged in
// shard order.
struct PairResult {
  std::uint64_t off_fp = 0;
  std::uint64_t on_fp = 0;
  double off_s = 0.0;  // summed per-shard meeting walls
  double on_s = 0.0;
  std::vector<std::uint64_t> on_walls_us;  // per shard
};

PairResult run_fleet_pair(const aroma::scn::Scenario& scn,
                          std::size_t shards, std::size_t workers,
                          std::uint64_t seed, bool on_first,
                          aroma::obs::MetricsRegistry* merged) {
  std::vector<std::uint64_t> off_fps(shards, 0), on_fps(shards, 0);
  std::vector<std::uint64_t> off_walls(shards, 0), on_walls(shards, 0);
  std::vector<std::unique_ptr<ScenarioInstance>> keep;
  if (merged != nullptr) keep.resize(shards);
  aroma::sim::WorkStealingPool::run(
      workers, shards, [&](std::size_t i, std::size_t) {
        auto leg = [&](bool plane_on) {
          auto room = std::make_unique<ScenarioInstance>(
              scn, i, aroma::sim::shard_seed(seed, i), kTelemetry);
          room->warmup();
          std::unique_ptr<Plane> plane;
          if (plane_on) {
            plane = std::make_unique<Plane>(
                *room, static_cast<std::uint32_t>(i), Plane::kFleetRing,
                Time::sec(Plane::kFleetSamplePeriodSec),
                Plane::fleet_watchdogs());
            plane->sampler.take_sample(room->world().now());  // boot
          }
          const auto s0 = std::chrono::steady_clock::now();
          room->finish();
          (plane_on ? on_walls : off_walls)[i] =
              static_cast<std::uint64_t>(seconds_since(s0) * 1e6);
          if (plane) plane->sampler.take_sample(room->world().now());
          (plane_on ? on_fps : off_fps)[i] = room->fingerprint();
          return room;
        };
        // Each leg's room dies before the next leg starts, so neither leg
        // allocates into memory the other still holds.
        for (const bool plane_on : {on_first, !on_first}) {
          auto room = leg(plane_on);
          if (plane_on && merged != nullptr) {
            room->telemetry()->snapshot_kernel(room->world());
            keep[i] = std::move(room);
          }
        }
      });
  if (merged != nullptr) {
    // Shard order, after the pool: merge order (gauges: last wins) must not
    // depend on worker scheduling.
    for (std::size_t i = 0; i < shards; ++i)
      merged->merge(keep[i]->telemetry()->metrics());
  }
  PairResult out;
  out.off_fp = aroma::sim::fleet_fingerprint(off_fps);
  out.on_fp = aroma::sim::fleet_fingerprint(on_fps);
  for (std::size_t i = 0; i < shards; ++i) {
    out.off_s += static_cast<double>(off_walls[i]) * 1e-6;
    out.on_s += static_cast<double>(on_walls[i]) * 1e-6;
  }
  out.on_walls_us = std::move(on_walls);
  return out;
}

constexpr int kStallChainLen = 6000;
constexpr std::uint64_t kStallRunLimit = 4096;
// One fully-jammed frame burns its whole retry budget (phys::CsmaMac
// retry_limit = 7) within a watchdog window; steady-state collision retries
// on the lightly-loaded room stay well below this.
constexpr std::uint64_t kRetryStormLimit = 6;

// A runaway zero-delay event chain: `length` events at one simulated
// instant, the canonical sim-time stall. Each pending step owns the shared
// countdown, so the state frees itself exactly when the chain drains.
void arm_stall_chain(aroma::sim::Simulator& sim, Time at, int length) {
  struct Step {
    aroma::sim::Simulator* sim;
    std::shared_ptr<int> remaining;
    void operator()() const {
      if (--*remaining > 0)
        sim->schedule_in(Time::zero(), aroma::sim::EventCategory::kDiag,
                         Step{sim, remaining});
    }
  };
  sim.schedule_at(at, aroma::sim::EventCategory::kDiag,
                  Step{&sim, std::make_shared<int>(length)});
}

struct FaultInjection {
  // Schedules the fault strictly after `base` (the checkpoint instant).
  // Called identically in the faulting run and the replay, so both runs
  // issue the same schedule calls from the same kernel state.
  std::function<void(ScenarioInstance&, Time)> inject;
  aroma::obs::Watchdog expect;
  const char* name;
};

struct FaultResult {
  bool fired = false;
  bool dump_ok = false;
  bool replay_ok = false;
  std::uint64_t fires = 0;
  std::int64_t fire_at_ns = 0;
  std::size_t dump_bytes = 0;
  std::size_t replay_events = 0;
  std::vector<std::uint8_t> dump;
};

// Fault leg: checkpoint mid-meeting, hand the blob to the flight recorder,
// inject, let the watchdog's dump hook capture the black box; then restore
// the dump's checkpoint into a fresh instance, re-inject, and drive a
// ReplayHarness to the faulting event. `trace_path`, when set, receives
// the faulting run's span timeline + sampler counter tracks.
FaultResult run_fault(const aroma::scn::Scenario& scn, std::uint64_t seed,
                      const FaultInjection& fault,
                      const std::string& trace_path) {
  FaultResult out;
  aroma::obs::WatchdogOptions wopts;
  wopts.stall_run_limit = kStallRunLimit;
  wopts.retry_storm_limit = kRetryStormLimit;

  ScenarioInstance room(scn, kFaultShard,
                        aroma::sim::shard_seed(seed, kFaultShard), kTelemetry);
  room.warmup();
  Plane plane(room, kFaultShard, Plane::kDeepRing, Time::ms(250), wopts);
  room.world().sim().run_until(Time::sec(kCheckpointAtSec));
  const std::vector<std::uint8_t> blob = room.checkpoint();
  const Time captured_at = room.world().now();
  plane.rec.note_checkpoint(1, captured_at, blob);

  aroma::obs::WatchdogFire fire;
  plane.dogs.set_dump_hook([&](const aroma::obs::WatchdogFire& f) {
    if (f.which == fault.expect && out.dump.empty()) {
      fire = f;
      out.dump = plane.rec.dump(fault.name);
    }
  });
  fault.inject(room, captured_at);
  room.finish();
  plane.sampler.take_sample(room.world().now());

  out.fires = plane.dogs.fired(fault.expect);
  out.fired = out.fires > 0 && !out.dump.empty();
  out.fire_at_ns = fire.at.count();
  out.dump_bytes = out.dump.size();
  if (!trace_path.empty())
    aroma::obs::write_chrome_trace(room.telemetry()->spans(), trace_path,
                                   &plane.sampler);
  if (!out.fired) return out;

  aroma::obs::FlightDump dump;
  try {
    dump = aroma::obs::FlightDump::parse(out.dump);
  } catch (const aroma::snap::SnapError& e) {
    std::fprintf(stderr, "FAIL: %s dump does not parse: %s\n", fault.name,
                 e.what());
    return out;
  }
  const aroma::obs::FlightRecord* target =
      dump.last_kernel_event_at_or_before(out.fire_at_ns);
  out.dump_ok =
      dump.has_checkpoint && !dump.records.empty() && target != nullptr;
  if (!out.dump_ok) {
    std::fprintf(stderr, "FAIL: %s dump is missing checkpoint or records\n",
                 fault.name);
    return out;
  }

  // Time travel: fresh instance, restore the embedded checkpoint, re-apply
  // the injection, and watch the harness execute the dump's faulting event.
  ScenarioInstance replay(scn, kFaultShard,
                          aroma::sim::shard_seed(seed, kFaultShard),
                          kTelemetry);
  replay.warmup();
  replay.restore(dump.checkpoint, Time::sec(0.0));
  aroma::snap::ReplayHarness harness;
  harness.attach(replay.world().sim());
  fault.inject(replay, Time::ns(dump.checkpoint_at_ns));
  replay.world().sim().run_until(Time::ns(out.fire_at_ns) + Time::sec(1.0));
  harness.detach(replay.world().sim());

  const aroma::snap::EventId want{Time::ns(target->t_ns), target->a,
                                  target->b};
  for (const aroma::snap::EventId& e : harness.events()) {
    if (e == want) {
      out.replay_ok = true;
      break;
    }
  }
  out.replay_events = harness.size();
  if (!out.replay_ok)
    std::fprintf(stderr,
                 "FAIL: %s replay (%zu events) never reached the dump's "
                 "faulting event (t=%lld id=%llu seq=%llu)\n",
                 fault.name, harness.size(),
                 static_cast<long long>(target->t_ns),
                 static_cast<unsigned long long>(target->a),
                 static_cast<unsigned long long>(target->b));
  return out;
}

bool write_blob(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      b.empty() || std::fwrite(b.data(), 1, b.size(), f) == b.size();
  return std::fclose(f) == 0 && ok;
}

benchsup::Json hdr_json(const aroma::obs::HdrHistogram* h) {
  benchsup::Json o = benchsup::Json::object();
  o.set("count", h != nullptr ? h->count() : 0);
  o.set("p50", h != nullptr ? h->p50() : 0);
  o.set("p99", h != nullptr ? h->p99() : 0);
  o.set("p999", h != nullptr ? h->p999() : 0);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // The overhead gate's fleet and pair count: fixed, so the gate reads the
  // same measurement whatever --shards sweeps.
  constexpr std::size_t kGateShards = 64;
  constexpr std::size_t kGatePairs = benchsup::Gates::kMinPairs;

  std::vector<std::size_t> shard_counts = {1, 8, 64};
  std::uint64_t seed = 2026;
  std::string json_path = "BENCH_obs.json";
  std::string metrics_path = "BENCH_metrics.json";
  std::string trace_path = "obs_fault_trace.json";
  std::string dump_path = "obs_fault_dump.bin";
  double max_overhead_pct = 3.0;
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
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics_path = need("--metrics-json");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = need("--trace");
    } else if (std::strcmp(argv[i], "--dump") == 0) {
      dump_path = need("--dump");
    } else if (std::strcmp(argv[i], "--max-overhead") == 0) {
      max_overhead_pct = std::strtod(need("--max-overhead"), nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: obs_bench [--shards n,n,...] [--seed n] "
                   "[--json path] [--metrics-json path] [--trace path] "
                   "[--dump path] [--max-overhead pct]\n");
      return 2;
    }
  }
  if (shard_counts.empty()) {
    std::fprintf(stderr, "--shards list is empty\n");
    return 2;
  }

  const std::size_t hw = aroma::sim::WorkStealingPool::hardware_workers();
  std::printf(
      "== OBS: %zu-core host, seed %llu, plane overhead gate %.1f%% ==\n", hw,
      static_cast<unsigned long long>(seed), max_overhead_pct);
  benchsup::Gates gates;

  const std::string scn_path =
      std::string(AROMA_SCENARIO_DIR) + "/smart_projector.scn";
  aroma::scn::Scenario scn;
  try {
    scn = aroma::scn::decode(aroma::scn::compile_file(scn_path));
  } catch (const aroma::scn::ScnError& e) {
    std::fprintf(stderr, "FAIL: %s: %s\n", scn_path.c_str(), e.what());
    return 1;
  }

  // --- Perturbation sweep. ------------------------------------------------
  // Fingerprints only: the largest count's pass keeps every plane-on room
  // alive for the latency merge, so each next shard allocates fresh memory
  // and its walls would read the plane as faster than no plane.
  benchsup::table_header("Plane perturbation (one off/on pass)",
                         {"shards", "fingerprint"});
  benchsup::Json runs = benchsup::Json::array();
  aroma::obs::MetricsRegistry merged;
  std::vector<std::uint64_t> shard_wall_us;
  const std::size_t largest =
      *std::max_element(shard_counts.begin(), shard_counts.end());
  for (const std::size_t shards : shard_counts) {
    // The largest count's plane-on fleet feeds the latency percentiles.
    const bool collect = shards == largest;
    PairResult pass = run_fleet_pair(scn, shards, hw, seed, false,
                                     collect ? &merged : nullptr);
    if (collect) shard_wall_us = std::move(pass.on_walls_us);
    gates.equal("sweep." + std::to_string(shards) + ".fingerprint",
                {pass.off_fp, pass.on_fp});
    benchsup::table_row(static_cast<double>(shards), hex64(pass.off_fp));
    benchsup::Json row = benchsup::Json::object();
    row.set("shards", static_cast<std::uint64_t>(shards));
    row.set("workers", static_cast<std::uint64_t>(hw));
    row.set("fleet_fingerprint", hex64(pass.off_fp));
    runs.push(std::move(row));
  }

  // --- Overhead gate: interleaved pairs on the fixed gate fleet. ----------
  // The leg that runs second on a shard replays the run the first just
  // warmed, so each order alone is biased by a few points. Each gate pair
  // is therefore one pass in each order, its overhead taken over both. A
  // build that cannot time the gate runs one pair for the fingerprints.
  const std::size_t gate_pairs =
      benchsup::Gates::cannot_time(false).empty() ? kGatePairs : 1;
  std::vector<double> overheads, off_first, on_first;
  std::vector<std::uint64_t> gate_fps;
  const auto pct = [](double off_s, double on_s) {
    return off_s > 0.0 ? (on_s - off_s) / off_s * 100.0 : 0.0;
  };
  for (std::size_t p = 0; p < gate_pairs; ++p) {
    double off_s = 0.0, on_s = 0.0;
    for (const bool plane_first : {p % 2 == 1, p % 2 == 0}) {
      const PairResult pass =
          run_fleet_pair(scn, kGateShards, hw, seed, plane_first, nullptr);
      (plane_first ? on_first : off_first)
          .push_back(pct(pass.off_s, pass.on_s));
      off_s += pass.off_s;
      on_s += pass.on_s;
      gate_fps.push_back(pass.off_fp);
      gate_fps.push_back(pass.on_fp);
    }
    overheads.push_back(pct(off_s, on_s));
  }
  gates.equal("gate_fleet.fingerprint", gate_fps);
  gates.timing("plane.overhead_pct", overheads, benchsup::Op::kLe,
               max_overhead_pct);
  const double off_first_pct = benchsup::quartiles(off_first).median;
  const double on_first_pct = benchsup::quartiles(on_first).median;
  std::printf("\nplane overhead at %zu shards: median %.2f%% over %zu pairs "
              "(off-first passes %.2f%%, on-first passes %.2f%%)\n",
              kGateShards, benchsup::quartiles(overheads).median, gate_pairs,
              off_first_pct, on_first_pct);
  benchsup::Json overhead = benchsup::Json::object();
  overhead.set("shards", static_cast<std::uint64_t>(kGateShards));
  overhead.set("workers", static_cast<std::uint64_t>(hw));
  overhead.set("off_first_median_pct", off_first_pct);
  overhead.set("on_first_median_pct", on_first_pct);

  // --- Fleet latency percentiles (plane-on leg, largest shard count). -----
  {
    aroma::obs::HdrHistogram& walls =
        merged.hdr("fleet.shard.wall_us", aroma::lpc::Layer::kResource);
    for (const std::uint64_t us : shard_wall_us) walls.record(us);
  }
  const char* kLatencyNames[] = {
      "disco.lookup.latency_us", "rfb.client.update_latency_us",
      "phys.mac.service_us", "net.stream.rtt_us", "fleet.shard.wall_us"};
  benchsup::table_header("End-to-end latency (µs, merged across shards)",
                         {"metric", "count", "p50", "p99", "p999"});
  benchsup::Json latency = benchsup::Json::object();
  std::uint64_t bad_tracks = 0;
  for (const char* name : kLatencyNames) {
    const aroma::obs::HdrHistogram* h = merged.find_hdr(name);
    // Every track populated, percentiles monotone.
    if (h == nullptr || h->count() == 0 || h->p50() > h->p99() ||
        h->p99() > h->p999())
      ++bad_tracks;
    benchsup::table_row(std::string(name),
                        static_cast<double>(h != nullptr ? h->count() : 0),
                        static_cast<double>(h != nullptr ? h->p50() : 0),
                        static_cast<double>(h != nullptr ? h->p99() : 0),
                        static_cast<double>(h != nullptr ? h->p999() : 0));
    std::string key = name;
    std::replace(key.begin(), key.end(), '.', '_');
    latency.set(key, hdr_json(h));
  }
  gates.check("latency.bad_tracks", static_cast<double>(bad_tracks),
              benchsup::Op::kEq, 0);
  if (!benchsup::write_metrics_section(metrics_path, "obs", merged))
    std::fprintf(stderr, "warning: cannot update %s\n", metrics_path.c_str());

  // --- Fault legs: detect, dump, time-travel. -----------------------------
  const FaultInjection stall_fault{
      [](ScenarioInstance& room, Time base) {
        arm_stall_chain(room.world().sim(), base + Time::sec(1.0),
                        kStallChainLen);
      },
      aroma::obs::Watchdog::kSimStall, "sim-stall"};
  const FaultInjection jam_fault{
      [](ScenarioInstance& room, Time base) {
        // Channel 6 is the room's radio channel (the .scn default); 30 dBm
        // in the middle of the floor plan flattens the SINR of every link.
        // The start/stop closures keep the jammer alive; its own scheduled
        // bursts hold only a liveness guard, so teardown is clean.
        auto jammer = std::make_shared<aroma::diag::Jammer>(
            room.world(), room.environment().medium(), aroma::env::Vec2{4, 4},
            6, 30.0);
        auto& sim = room.world().sim();
        sim.schedule_at(base + Time::sec(1.0),
                        aroma::sim::EventCategory::kDiag,
                        [jammer] { jammer->start(); });
        sim.schedule_at(base + Time::sec(5.0),
                        aroma::sim::EventCategory::kDiag,
                        [jammer] { jammer->stop(); });
      },
      aroma::obs::Watchdog::kRetryStorm, "rf-jam"};

  const FaultResult stall = run_fault(scn, seed, stall_fault, trace_path);
  const FaultResult jam = run_fault(scn, seed, jam_fault, "");
  benchsup::table_header(
      "Fault legs (checkpoint @ " + std::to_string(kCheckpointAtSec) + " s)",
      {"fault", "fires", "dump-KiB", "replayed", "replay-events"});
  const auto fault_row = [&](const char* name, const FaultResult& f) {
    benchsup::table_row(std::string(name), static_cast<double>(f.fires),
                        static_cast<double>(f.dump_bytes) / 1024.0,
                        std::string(f.replay_ok ? "to-fault" : "NO"),
                        static_cast<double>(f.replay_events));
  };
  fault_row("sim-stall", stall);
  fault_row("rf-jam", jam);
  const auto fault_json = [](const FaultResult& f) {
    benchsup::Json o = benchsup::Json::object();
    o.set("fired", f.fired);
    o.set("fires", f.fires);
    o.set("fire_at_ns",
          static_cast<std::uint64_t>(f.fire_at_ns > 0 ? f.fire_at_ns : 0));
    o.set("dump_bytes", static_cast<std::uint64_t>(f.dump_bytes));
    o.set("dump_parses", f.dump_ok);
    o.set("replay_reaches_fault", f.replay_ok);
    o.set("replay_events", static_cast<std::uint64_t>(f.replay_events));
    return o;
  };
  for (const auto& [name, f] :
       {std::pair<std::string, const FaultResult*>{"stall", &stall},
        std::pair<std::string, const FaultResult*>{"jam", &jam}}) {
    gates.check(name + ".fired", f->fired ? 1 : 0, benchsup::Op::kEq, 1);
    gates.check(name + ".dump_parses", f->dump_ok ? 1 : 0, benchsup::Op::kEq,
                1);
    gates.check(name + ".replay_reaches_fault", f->replay_ok ? 1 : 0,
                benchsup::Op::kEq, 1);
  }
  if (!dump_path.empty() && !stall.dump.empty() &&
      !write_blob(dump_path, stall.dump))
    std::fprintf(stderr, "warning: cannot write %s\n", dump_path.c_str());

  // --- Machine-readable output. -------------------------------------------
  benchsup::Json doc = benchsup::Json::object();
  doc.set("bench", "obs");
  doc.set("seed", seed);
  doc.set("checkpoint_at_s", kCheckpointAtSec);
  doc.set("runs", std::move(runs));
  doc.set("overhead", std::move(overhead));
  doc.set("latency", std::move(latency));
  benchsup::Json faults = benchsup::Json::object();
  faults.set("stall", fault_json(stall));
  faults.set("jam", fault_json(jam));
  doc.set("faults", std::move(faults));
  if (!trace_path.empty())
    std::printf("\nwrote %s (Perfetto/chrome://tracing)\n",
                trace_path.c_str());
  if (!dump_path.empty() && !stall.dump.empty())
    std::printf("wrote %s (flight-recorder black box)\n", dump_path.c_str());
  return gates.finish(doc, json_path);
}

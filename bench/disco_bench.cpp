// DISCO — registrar matching benchmark: the inverted attribute index
// against its scalar scan oracle, single-world and sharded.
//
// Two legs, each a pure function of --seed:
//
//  * index: 10k registered services, randomized templates. The inverted
//    attribute index must return bit-identical ids to the retained scalar
//    scan oracle (fingerprints compared over every equality query), and
//    indexed lookup throughput must beat the scan by >= 5x at 10k services
//    in the median of 7 interleaved indexed/scan pairs.
//  * fleet: seeded per-shard corpora matched through the index across a
//    WorkStealingPool under different worker counts; the fleet fingerprint
//    must not depend on the worker count.
//
// Output lands in BENCH_disco.json, every gate one record of the schema in
// bench/common.hpp. Exit status is nonzero when any gate fails.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "disco/index.hpp"
#include "disco/service.hpp"
#include "sim/fleet.hpp"
#include "sim/random.hpp"

namespace benchsup = aroma::benchsup;

namespace {

using namespace aroma;

using benchsup::hex64;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// Shared corpus: seeded services and query templates.

struct Corpus {
  std::vector<disco::ServiceDescription> services;
  std::vector<disco::ServiceTemplate> queries;
};

Corpus make_corpus(std::uint64_t seed, std::size_t n_services,
                   std::size_t n_queries) {
  sim::Rng rng(sim::mix_hash(seed, 0xd15c0));
  static const char* kCategories[] = {"projector", "printer", "display",
                                      "sensor", "speaker", "camera",
                                      "storage", "gateway"};
  static const char* kVariants[] = {"a", "b", "c", "d", "hd", "lite"};
  Corpus c;
  c.services.reserve(n_services);
  for (std::size_t i = 0; i < n_services; ++i) {
    disco::ServiceDescription s;
    s.id = static_cast<disco::ServiceId>(i + 1);
    s.type = std::string("svc/") + kCategories[rng.uniform_int(0, 7)] + "/" +
             kVariants[rng.uniform_int(0, 5)];
    s.endpoint = {static_cast<net::NodeId>(rng.uniform_int(1, 1000)), 80};
    s.attributes["room"] =
        "room-" + std::to_string(rng.uniform_int(0, 199));
    s.attributes["floor"] = std::to_string(rng.uniform_int(0, 19));
    if (rng.uniform_int(0, 1) == 0) {
      s.attributes["owner"] =
          "user-" + std::to_string(rng.uniform_int(0, 499));
    }
    c.services.push_back(std::move(s));
  }
  c.queries.reserve(n_queries);
  for (std::size_t q = 0; q < n_queries; ++q) {
    disco::ServiceTemplate t;
    switch (rng.uniform_int(0, 9)) {
      case 0:  // rare wildcard
        break;
      case 1:
        t.type = "svc/nonexistent";  // guaranteed miss
        break;
      default:
        t.type = std::string("svc/") + kCategories[rng.uniform_int(0, 7)];
        if (rng.uniform_int(0, 2) != 0) {
          t.attributes["room"] =
              "room-" + std::to_string(rng.uniform_int(0, 199));
        }
        if (rng.uniform_int(0, 3) == 0) {
          t.attributes["floor"] = std::to_string(rng.uniform_int(0, 19));
        }
        break;
    }
    c.queries.push_back(std::move(t));
  }
  return c;
}

std::uint64_t fold_ids(std::uint64_t fp,
                       const std::vector<disco::ServiceId>& ids) {
  fp = sim::mix_hash(fp, ids.size());
  for (const disco::ServiceId id : ids) fp = sim::mix_hash(fp, id);
  return fp;
}

// ---------------------------------------------------------------------------
// Leg 1: inverted index vs scalar scan oracle.

constexpr std::size_t kPairs = benchsup::Gates::kMinPairs;

struct IndexResult {
  std::uint64_t fp_indexed = 0;
  std::uint64_t fp_scan = 0;
  double indexed_ops_per_sec = 0;  // median pair
  double scan_ops_per_sec = 0;     // median pair
  std::vector<double> speedups;    // per pair: indexed / scan ops/s
  std::size_t services = 0;
  std::size_t equality_queries = 0;
};

IndexResult run_index_leg(std::uint64_t seed, std::size_t n_services,
                          std::size_t n_equality, std::size_t n_throughput,
                          std::size_t n_scan_sample) {
  const Corpus corpus =
      make_corpus(seed, n_services, std::max(n_equality, n_throughput));
  disco::ServiceIndex index;
  for (const auto& s : corpus.services) index.insert(s);

  IndexResult r;
  r.services = n_services;
  r.equality_queries = n_equality;
  // Equality sweep: every query answered by both paths, ids folded into
  // two fingerprints that must collide exactly.
  for (std::size_t q = 0; q < n_equality; ++q) {
    r.fp_indexed = fold_ids(r.fp_indexed, index.match(corpus.queries[q]));
    r.fp_scan = fold_ids(r.fp_scan, index.match_scan(corpus.queries[q]));
  }

  // Throughput: kPairs interleaved pairs, alternating which side runs
  // first. Each pair times the indexed path over its share of the full
  // query mix and the scan oracle over a subsample (it is the O(n)
  // baseline being replaced — timing every query through it would
  // dominate the bench run).
  const std::size_t per_pair = std::max<std::size_t>(1, n_throughput / kPairs);
  std::uint64_t sink = 0;
  const auto indexed_rate = [&](std::size_t pair) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t q = pair * per_pair; q < (pair + 1) * per_pair; ++q) {
      sink ^= fold_ids(0, index.match(corpus.queries[q % n_throughput]));
    }
    const double s = seconds_since(t0);
    return static_cast<double>(per_pair) / (s > 0 ? s : 1e-9);
  };
  const auto scan_rate = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t q = 0; q < n_scan_sample; ++q) {
      sink ^= fold_ids(0, index.match_scan(corpus.queries[q]));
    }
    const double s = seconds_since(t0);
    return static_cast<double>(n_scan_sample) / (s > 0 ? s : 1e-9);
  };
  std::vector<double> indexed, scan;
  for (std::size_t p = 0; p < kPairs; ++p) {
    if (p % 2 == 0) {
      indexed.push_back(indexed_rate(p));
      scan.push_back(scan_rate());
    } else {
      scan.push_back(scan_rate());
      indexed.push_back(indexed_rate(p));
    }
    r.speedups.push_back(indexed.back() / scan.back());
  }
  if (sink == 0xdeadbeef) std::printf("(unreachable)\n");  // keep `sink` live
  r.indexed_ops_per_sec = benchsup::quartiles(indexed).median;
  r.scan_ops_per_sec = benchsup::quartiles(scan).median;
  return r;
}

// ---------------------------------------------------------------------------
// Leg 2: fleet shards — fingerprint must not depend on the worker count.

std::uint64_t run_fleet_pass(std::uint64_t seed, std::size_t shards,
                             std::size_t workers) {
  std::vector<std::uint64_t> fps(shards, 0);
  sim::WorkStealingPool::run(workers, shards, [&](std::size_t i, std::size_t) {
    const std::uint64_t shard_seed = sim::shard_seed(seed, i);
    // One registrar's worth of indexed matching per shard.
    const Corpus corpus = make_corpus(shard_seed, 400, 200);
    disco::ServiceIndex index;
    for (const auto& s : corpus.services) index.insert(s);
    std::uint64_t fp = shard_seed;
    for (const auto& t : corpus.queries) fp = fold_ids(fp, index.match(t));
    fps[i] = fp;
  });
  return sim::fleet_fingerprint(fps);
}

}  // namespace

int main(int argc, char** argv) {
  // Indexed matching must beat the scan oracle by this much at 10k
  // services.
  constexpr double kMinSpeedup = 5.0;

  std::uint64_t seed = 2026;
  std::string json_path = "BENCH_disco.json";
  std::size_t services = 10000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = need("--json");
    } else if (std::strcmp(argv[i], "--services") == 0) {
      services = std::strtoull(need("--services"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: disco_bench [--seed n] [--json path] "
                   "[--services n] [--quick]\n");
      return 2;
    }
  }
  // --quick trims the leg sizes for CI smoke, keeping every gate armed.
  const std::size_t n_equality = quick ? 300 : 1500;
  const std::size_t n_throughput = quick ? 5000 : 1000000;
  const std::size_t n_scan_sample = quick ? 100 : 400;
  if (quick) services = std::min<std::size_t>(services, 2000);

  std::printf("== DISCO: registrar matching, seed %llu%s ==\n",
              static_cast<unsigned long long>(seed), quick ? " (quick)" : "");
  benchsup::Gates gates;

  // --- index ----------------------------------------------------------------
  const IndexResult idx = run_index_leg(seed, services, n_equality,
                                        n_throughput, n_scan_sample);
  const benchsup::Quartiles sp = benchsup::quartiles(idx.speedups);
  benchsup::table_header("Indexed matching vs scalar oracle",
                         {"services", "equality-q", "indexed-ops/s",
                          "scan-ops/s", "speedup"});
  benchsup::table_row(static_cast<double>(idx.services),
                      static_cast<double>(idx.equality_queries),
                      idx.indexed_ops_per_sec, idx.scan_ops_per_sec,
                      sp.median);
  gates.equal("index.fingerprint", {idx.fp_indexed, idx.fp_scan});
  gates.timing("index.speedup", idx.speedups, benchsup::Op::kGe, kMinSpeedup);

  // --- fleet ------------------------------------------------------------------
  const std::size_t hw = sim::WorkStealingPool::hardware_workers();
  const std::size_t shards = 8;
  const std::vector<std::size_t> worker_counts = {1, hw > 1 ? hw : 2};
  std::vector<std::uint64_t> fleet_fps;
  for (const std::size_t w : worker_counts) {
    fleet_fps.push_back(run_fleet_pass(seed, shards, w));
  }
  benchsup::table_header("Fleet shards across worker counts",
                         {"shards", "workers", "fingerprint"});
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    benchsup::table_row(static_cast<std::uint64_t>(shards),
                        static_cast<std::uint64_t>(worker_counts[i]),
                        hex64(fleet_fps[i]));
  }
  gates.equal("fleet.fingerprint", fleet_fps);

  // --- JSON artifact ------------------------------------------------------------
  benchsup::Json doc = benchsup::Json::object();
  doc.set("bench", "disco");
  doc.set("seed", seed);
  doc.set("quick", quick);

  benchsup::Json jidx = benchsup::Json::object();
  jidx.set("services", static_cast<std::uint64_t>(idx.services));
  jidx.set("equality_queries", static_cast<std::uint64_t>(idx.equality_queries));
  jidx.set("indexed_ops_per_sec", idx.indexed_ops_per_sec);
  jidx.set("scan_ops_per_sec", idx.scan_ops_per_sec);
  doc.set("index", std::move(jidx));

  benchsup::Json jfleet = benchsup::Json::object();
  jfleet.set("shards", static_cast<std::uint64_t>(shards));
  // The fleet fingerprint group runs at 1 worker and at this many.
  jfleet.set("workers", static_cast<std::uint64_t>(worker_counts.back()));
  doc.set("fleet", std::move(jfleet));
  return gates.finish(doc, json_path);
}

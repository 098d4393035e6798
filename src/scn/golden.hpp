// Pinned behaviour goldens for the scenario library, read from one text
// file (scenarios/goldens.txt) that tests/scn_test.cpp, bench/fleet_bench.cpp
// and scripts/check_bench_json.py all check against.
//
// One record per line, whitespace-separated; '#' starts a comment:
//
//   fleet <scenario> <seed> <shards> <fleet fingerprint> <events>
//   shard <scenario> <seed> <shard> <fingerprint>
//
// A fleet line pins scn::run_fleet(scenario, shards, seed): its fleet
// fingerprint (behaviour) and executed-event total (cost). A shard line
// pins ScenarioInstance(scenario, shard, sim::shard_seed(seed, shard))
// run to completion. Fingerprints are 0x-prefixed hex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace aroma::scn {

struct FleetGolden {
  std::string scenario;
  std::uint64_t seed = 0;
  std::size_t shards = 0;
  std::uint64_t fleet_fp = 0;
  std::uint64_t events = 0;
};

struct ShardGolden {
  std::string scenario;
  std::uint64_t seed = 0;
  std::size_t shard = 0;
  std::uint64_t fp = 0;
};

struct Goldens {
  std::vector<FleetGolden> fleets;
  std::vector<ShardGolden> shards;

  /// The fleet record for (scenario, seed, shards), or null.
  const FleetGolden* fleet(std::string_view scenario, std::uint64_t seed,
                           std::size_t shards) const;
};

/// Parses a goldens file; throws ScnError naming the line on a malformed
/// record or an unreadable file.
Goldens read_goldens(const std::string& path);

}  // namespace aroma::scn

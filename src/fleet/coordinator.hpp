// The elastic fleet coordinator: the parent side of the control plane.
//
// run() spawns N worker processes, performs the versioned handshake
// (rejecting protocol/snap-version/endianness mismatches before any blob
// moves), ships the fleet's compiled scenario to every worker (a blob a
// worker cannot decode fails the run before any shard is assigned), deals
// shards — rooms of that scenario — round-robin, and drives the run to
// completion while servicing a declarative fault plan:
//
//   * migrations — after a shard's Nth streamed checkpoint, quiesce it on
//     its owner (kMigrateOut), carry the blob to another worker (kRestore),
//     and resume; latency (kMigrateOut send -> kRestored ack) lands in the
//     fleet.migration_ns HDR.
//   * a worker kill — fault injection via kKill (clean _exit, detected as
//     EOF, or a hang, detected by the heartbeat watchdog), after which
//     every shard the dead worker owned is restored on a survivor from its
//     last cadenced checkpoint (or rebuilt fresh if none was ever taken:
//     determinism makes both paths bit-exact).
//
// The coordinator never simulates anything itself, so wall-clock use here
// (heartbeat deadlines, latency measurement) cannot perturb results: the
// fleet fingerprint is folded from per-shard fingerprints in shard order
// and is bit-identical to a single-process run whatever the worker count,
// migration schedule, or kill pattern.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet/proc.hpp"
#include "fleet/wire.hpp"
#include "lpc/issue.hpp"
#include "obs/metrics.hpp"

namespace aroma::fleet {

/// Migrate `shard_id` away from its owner once its `after_checkpoints`-th
/// cadenced checkpoint has been streamed.
struct MigrationPlan {
  std::uint64_t shard_id = 0;
  std::uint64_t after_checkpoints = 1;
};

/// Kill worker index `worker` once it has streamed `after_checkpoints`
/// checkpoints (across all its shards).
struct KillPlan {
  std::size_t worker = 0;
  std::uint64_t after_checkpoints = 1;
  KillMode mode = KillMode::kExit;
};

struct FleetOptions {
  std::size_t workers = 2;
  std::size_t shards = 8;
  std::uint64_t seed = 42;
  /// The AROMSCEN blob (scn::compile output) every shard runs; shipped to
  /// every worker once. Required: run() throws FleetError when empty.
  std::vector<std::uint8_t> scenario;
  std::int64_t cadence_ns = 0;        // checkpoint cadence (0: none)
  bool telemetry = false;             // shards carry obs registries
  int heartbeat_interval_ms = 50;
  /// Silence on a worker's channel for this long is a presumed death.
  int heartbeat_timeout_ms = 2000;
  /// Worker command line (the socketpair fd is appended); empty means
  /// entry-mode fork: the child calls worker_main directly.
  std::vector<std::string> worker_argv;
  std::vector<MigrationPlan> migrations;
  std::optional<KillPlan> kill;
};

struct FleetReport {
  std::uint64_t fleet_fp = 0;
  std::uint64_t total_events = 0;
  std::size_t shards_completed = 0;
  std::size_t lost_shards = 0;        // assigned but never completed
  std::uint64_t migrations = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t checkpoints_streamed = 0;
  std::uint64_t control_bytes = 0;    // both directions, all channels
  std::uint64_t control_frames = 0;
  double recovery_ms = 0.0;           // death detection -> last kRestored
  std::vector<std::uint64_t> shard_fps;  // shard order
};

class Coordinator {
 public:
  explicit Coordinator(FleetOptions options);

  /// Executes the whole fleet run. Throws FleetError when the options are
  /// unusable (no worker, shard or scenario; checked before anything is
  /// spawned), the run cannot complete (e.g. every worker died), or a
  /// shard's metrics payload does not restore or merge (a name under two
  /// kinds).
  FleetReport run();

  /// fleet.migrations / fleet.worker_deaths / fleet.control_bytes counters
  /// and the fleet.migration_ns HDR, all at the resource layer.
  obs::MetricsRegistry& fleet_metrics() { return fleet_metrics_; }

  /// Per-shard obs registries folded in shard order (telemetry runs only);
  /// bit-comparable across worker counts via to_json().
  obs::MetricsRegistry& merged_shard_metrics() { return merged_; }

  /// Issues filed by the heartbeat watchdog, layer-classified through lpc.
  const lpc::IssueLog& issues() const { return issues_; }

 private:
  struct WorkerSlot;
  struct ShardState;
  struct Impl;

  FleetOptions options_;
  obs::MetricsRegistry fleet_metrics_;
  obs::MetricsRegistry merged_;
  lpc::IssueLog issues_;
};

}  // namespace aroma::fleet

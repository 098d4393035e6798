// CheckpointManager — cadenced full + incremental checkpoints with
// deterministic quiescence deferral.
//
// Checkpoints are only valid at quiescent instants (see snapshot.hpp). The
// manager never skips a cycle because the world happens to be mid-frame:
// it advances the simulation in small fixed steps until the quiescence
// predicates hold, so the capture instant is a deterministic function of
// the seed and the cadence — two runs with the same schedule checkpoint at
// identical instants and produce identical blobs.
//
// Incremental checkpoints serialize every section, then keep only the
// sections whose payload changed since the previous checkpoint. On the
// steady-state projector workload this is a large win: the pixel section
// (screen + caches + replica) only churns when a slide flips (every 4 s),
// while the control sections (kernel queue, stream and MAC timers, RFB
// request flags and stats) churn with every timer and update — a
// sub-second cadence captures mostly-identical pixel payloads that the
// delta drops entirely.
// An incremental blob alone is not restorable (sections are missing, which
// restore_all rejects); materialize() overlays it onto its base to rebuild
// the byte-identical full blob.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "sim/world.hpp"
#include "snap/snapshot.hpp"

namespace aroma::snap {

/// One taken checkpoint. `base` is 0 for a full checkpoint; for an
/// incremental one it is the id of the checkpoint it deltas against.
struct Checkpoint {
  std::uint64_t id = 0;
  std::uint64_t base = 0;
  sim::Time captured_at;
  std::vector<std::uint8_t> blob;
  bool full() const { return base == 0; }
};

struct CheckpointStats {
  std::uint64_t full_taken = 0;
  std::uint64_t incremental_taken = 0;
  std::uint64_t bytes_written = 0;       // sum of emitted blob sizes
  std::uint64_t full_bytes = 0;          // sum over full blobs
  std::uint64_t incremental_bytes = 0;   // sum over incremental blobs
  std::uint64_t deferral_steps = 0;      // quiescence wait iterations
  sim::Time deferral_time;               // simulated time spent waiting
};

class CheckpointManager {
 public:
  struct Options {
    /// Step size of the quiescence deferral loop.
    sim::Time defer_step = sim::Time::ms(1);
    /// Give up (SnapError) when quiescence is not reached within this.
    sim::Time max_defer = sim::Time::sec(10.0);
    /// Take incrementals between fulls; every full_every-th checkpoint is
    /// full (1 = always full).
    std::uint64_t full_every = 16;
  };

  CheckpointManager(sim::World& world, SnapshotRegistry& registry)
      : CheckpointManager(world, registry, Options{}) {}
  CheckpointManager(sim::World& world, SnapshotRegistry& registry,
                    Options options);

  /// Advances the simulation (in defer_step increments) until the registry
  /// is quiescent, then captures. Returns a full checkpoint on the first
  /// call and every full_every-th call, an incremental otherwise.
  Checkpoint take();

  /// Like take(), but always emits a full checkpoint.
  Checkpoint take_full();

  /// Like take(), but always emits an incremental (delta vs the previous
  /// checkpoint; acts as a full when none exists yet).
  Checkpoint take_incremental();

  /// Rebuilds the full blob an incremental checkpoint stands for:
  /// `base` section payloads, overlaid (in place) with the sections present
  /// in `incremental`. The result is byte-identical to the full checkpoint
  /// that would have been taken at the incremental's capture instant.
  static std::vector<std::uint8_t> materialize(
      std::span<const std::uint8_t> base,
      std::span<const std::uint8_t> incremental);

  const CheckpointStats& stats() const { return stats_; }

 private:
  void wait_for_quiescence();

  sim::World& world_;
  SnapshotRegistry& registry_;
  Options options_;
  CheckpointStats stats_;
  std::uint64_t next_id_ = 1;
  std::uint64_t last_id_ = 0;
  std::map<std::uint32_t, std::vector<std::uint8_t>> last_payloads_;
};

}  // namespace aroma::snap

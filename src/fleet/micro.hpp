// MicroShard — the ~1M-room scale-out unit.
//
// A scenario room (scn::ScenarioInstance) is the full Environment ->
// Intentional stack: CSMA radios, Jini discovery, sessioned services, a
// live RFB stream. Faithful, but at milliseconds of wall time per room a
// million of them is hours — useless for a scale-out sweep. The paper's
// scale story ("thousands of rooms, millions of users") is about breadth,
// not per-room depth, so the sweep needs a unit whose cost is dominated by
// count.
//
// A MicroShard packs thousands of micro-rooms into one checkpointable
// shard. Each micro-room is a beacon train: a splitmix-derived period and
// phase, an event accumulator folded with sim::mix_hash at every beacon,
// and a horizon shared by the shard. Rooms are mutually independent, so
// events are processed room-major — no heap, no cross-room ordering to get
// wrong — yet the shard exposes the exact contract the fleet needs:
//
//   * run_until/finish with a logical ns clock,
//   * checkpoint/restore through the standard snap container (magic,
//     version, CRC-checked MICR section, time-delta rebasing), always
//     quiescent between run_until calls,
//   * a fingerprint that folds per-room accumulators in room order — the
//     same shard-order-fold discipline as fleet_fingerprint, so restores,
//     migrations, and worker-count changes are bit-detectable.
//
// Determinism: every micro-room's trajectory is a pure function of
// (shard seed, room index). ~8 beacons per room over the horizon keeps a
// 4096-room shard around 32k events — a 256-shard fleet sweeps ~1M rooms
// in seconds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/time.hpp"
#include "snap/snapshot.hpp"

namespace aroma::fleet {

inline constexpr std::uint32_t kTagMicro = snap::tag4("MICR");

class MicroShard {
 public:
  MicroShard(std::size_t shard_id, std::uint64_t seed, std::uint32_t rooms);

  void run_until(sim::Time t);
  sim::Time now() const { return now_; }

  /// Beacon trains start at the fleet-wide setup instant (45 s, the
  /// smart_projector meeting start); cadenced checkpoints count from it.
  static sim::Time setup_time() { return sim::Time::sec(45.0); }

  /// Shared meeting horizon; heterogeneous across shards like the
  /// smart_projector scenario (55 s + 10 s * (shard % 5)), so work
  /// stealing stays meaningful.
  sim::Time horizon() const { return horizon_; }

  /// Runs every beacon train to the horizon.
  void finish() { run_until(horizon_); }

  std::size_t shard_id() const { return shard_id_; }
  std::uint64_t seed() const { return seed_; }
  std::uint32_t rooms() const { return static_cast<std::uint32_t>(rooms_.size()); }
  std::uint64_t events() const { return events_; }

  snap::SnapshotRegistry& registry() { return registry_; }

  /// Full checkpoint blob at the current instant (always quiescent).
  std::vector<std::uint8_t> checkpoint() const {
    return registry_.save_all(now_);
  }
  /// Allocation-free form: serializes into recycled scratch.
  void checkpoint_into(snap::SaveScratch& scratch) const {
    registry_.save_all_into(now_, scratch);
  }

  /// Overwrites state from a checkpoint blob, resuming at capture + gap.
  void restore(std::span<const std::uint8_t> blob, sim::Time gap);

  /// Folds (accumulator, beacon count) over rooms in room order, chained
  /// from the shard seed — bit-identical however the run was sliced,
  /// checkpointed, or migrated.
  std::uint64_t fingerprint() const;

 private:
  struct Room {
    std::uint64_t acc = 0;        // event digest
    std::int64_t next_ns = 0;     // next beacon instant
    std::int64_t period_ns = 0;   // fixed per room
    std::uint32_t beacons = 0;    // fired so far
  };

  std::size_t shard_id_;
  std::uint64_t seed_;
  sim::Time now_ = sim::Time::zero();
  sim::Time horizon_;
  std::uint64_t events_ = 0;
  std::vector<Room> rooms_;
  snap::SnapshotRegistry registry_;
};

}  // namespace aroma::fleet

// Mobility models: where a physical entity is at a given simulated time.
//
// Positions are pure functions of time (given the model's seed), so radios
// and acoustic queries can sample them lazily without per-tick updates.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "env/geometry.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace aroma::env {

/// Interface: position as a function of simulated time. Implementations may
/// cache precomputed trajectory segments; queries must be monotone-safe
/// (same t -> same position) for reproducibility.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual Vec2 position_at(sim::Time t) const = 0;
  /// Hard upper bound on the entity's speed, in m/s: over any interval dt,
  /// |position_at(t + dt) - position_at(t)| <= max_speed_mps() * dt. A
  /// radio on a zero-bound model caches its position and its MAC polls no
  /// backoff slots; the radio medium snapshots a world whose bounds are all
  /// zero once. Infinity (the default) is always safe.
  virtual double max_speed_mps() const {
    return std::numeric_limits<double>::infinity();
  }
};

/// Never moves.
class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(Vec2 pos) : pos_(pos) {}
  Vec2 position_at(sim::Time) const override { return pos_; }
  double max_speed_mps() const override { return 0.0; }
  /// Teleports the entity. This steps outside the max_speed_mps() contract,
  /// so any RadioMedium indexing positions must be told via
  /// invalidate_positions() after calling this mid-simulation.
  void set_position(Vec2 p) { pos_ = p; }

 private:
  Vec2 pos_;
};

/// Constant-velocity line from an origin.
class LinearMobility final : public MobilityModel {
 public:
  LinearMobility(Vec2 origin, Vec2 velocity_mps)
      : origin_(origin), vel_(velocity_mps) {}
  Vec2 position_at(sim::Time t) const override {
    return origin_ + vel_ * t.seconds();
  }
  double max_speed_mps() const override { return vel_.norm(); }

 private:
  Vec2 origin_;
  Vec2 vel_;
};

/// Random waypoint within an arena: pick a target, walk there at a speed
/// drawn from [min,max], pause, repeat. Trajectory segments are generated
/// lazily and cached, so position_at is deterministic and O(log n).
class RandomWaypointMobility final : public MobilityModel {
 public:
  struct Params {
    Rect arena{{0, 0}, {50, 50}};
    double min_speed_mps = 0.5;
    double max_speed_mps = 1.5;
    sim::Time pause = sim::Time::sec(2.0);
  };

  RandomWaypointMobility(Params p, Vec2 start, std::uint64_t seed);
  Vec2 position_at(sim::Time t) const override;
  double max_speed_mps() const override { return p_.max_speed_mps; }

 private:
  struct Segment {
    sim::Time start;
    sim::Time end;       // arrival at `to`
    sim::Time pause_end; // end of the post-arrival pause
    Vec2 from;
    Vec2 to;
  };
  void extend_until(sim::Time t) const;

  Params p_;
  mutable sim::Rng rng_;
  mutable std::vector<Segment> segments_;
};

/// Bounded random walk: direction re-drawn every `step` interval, reflecting
/// off arena walls.
class RandomWalkMobility final : public MobilityModel {
 public:
  struct Params {
    Rect arena{{0, 0}, {50, 50}};
    double speed_mps = 1.0;
    sim::Time step = sim::Time::sec(1.0);
  };

  RandomWalkMobility(Params p, Vec2 start, std::uint64_t seed);
  Vec2 position_at(sim::Time t) const override;
  double max_speed_mps() const override { return p_.speed_mps; }

 private:
  void extend_until(sim::Time t) const;

  Params p_;
  mutable sim::Rng rng_;
  mutable std::vector<Vec2> waypoints_;  // position at k * step
};

}  // namespace aroma::env

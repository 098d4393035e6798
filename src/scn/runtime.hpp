// Scenario runtime: instantiates and drives a world from compiled IR, and
// is the one checkpointable world in the tree.
//
// The construction program is a load-bearing contract: sim::Rng::fork
// mutates the parent RNG, so the sequence of component constructions
// during setup determines every downstream random draw. The program, in
// order:
//
//   1. World(seed), arena mode, train batching on exactly when some flow
//      is train-lowered (scn::kernel_trains); telemetry (metrics + spans)
//      attached when RunOptions asks for it.
//   2. Environment with path_loss.seed = seed.
//   3. Devices in entity declaration order (groups expand member-major);
//      node ids are assigned 1, 2, 3, ... as devices are constructed.
//      This shard's group counts, positions, periods, payloads and phases
//      are held to the compiler's validate rules: a value out of range
//      throws ScnError naming the entity and the shard.
//   4. Ping sinks: port 7777 bound on each distinct ping destination, in
//      traffic declaration order (bound even when a source group is empty
//      for this shard).
//   --- warmup() ---
//   5. Registrars, then projectors (each SmartProjector followed by its
//      export-side JiniClient), then one JiniClient per goal actor, then
//      displays (each PresenterDisplay plus its SlideDeckWorkload — the
//      workload ctor is world-free, so it costs no RNG draws), then
//      service export. run_until(settle).
//   6. Per goal, in declaration order: the goal's ProjectorClient (present
//      only) and UserAgent, then the procedure attempt. The present
//      procedure is the documented four-step Smart Projector sequence.
//      run_until(meeting).
//   7. Traffic, in declaration order: train-lowered ping traffic arms a
//      pre-scheduling generator (each tick parks every member's send at
//      one timestamp — the kernel's train batching absorbs the burst);
//      everything else arms per-member PeriodicTimers.
//   --- finish() ---
//   8. run_until(horizon); traffic stops in REVERSE declaration order
//      (slides before pings); the drain tail runs to horizon + drain.
//
// Checkpoint/restore is structural-rebuild + logical-overwrite:
//   1. construct an instance with the same (scenario, shard_id, seed),
//   2. warmup() — rebuilds every handler, binding and timer the
//      checkpointed run had (this is what makes C++ closures
//      serializable-by-proxy),
//   3. restore(blob, gap) — advances to the first quiescent instant (the
//      structural settle point: the workload creates structure such as the
//      RFB stream until the goal procedures finish), drops the pending
//      events, overwrites all logical state from the blob's sections, and
//      re-arms the saved pending events with their original (when, seq,
//      id) identities.
// A zero gap resumes the captured run bit-for-bit (same fingerprint, same
// executed-event stream); a positive gap shifts every deadline uniformly.
// The snapshot registry and the settle loop exist only on this path:
// construction and run() never touch them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "app/projector.hpp"
#include "disco/jini.hpp"
#include "env/environment.hpp"
#include "net/stack.hpp"
#include "phys/device.hpp"
#include "rfb/workload.hpp"
#include "scn/ast.hpp"
#include "sim/world.hpp"
#include "user/agent.hpp"

namespace aroma::obs {
class Telemetry;
}  // namespace aroma::obs

namespace aroma::snap {
class SnapshotRegistry;
struct SaveScratch;
}  // namespace aroma::snap

namespace aroma::scn {

struct RunOptions {
  bool use_arena = true;
  /// Attach a MetricsRegistry + SpanTracer to the world (checkpointed into
  /// the optional OBSM/OBSS sections).
  bool telemetry = false;
};

class ScenarioInstance {
 public:
  /// Builds the world and runs the construction steps 1-4 above. The
  /// scenario must outlive the instance.
  ScenarioInstance(const Scenario& scenario, std::size_t shard_id,
                   std::uint64_t seed, RunOptions options = {});
  ~ScenarioInstance();
  ScenarioInstance(const ScenarioInstance&) = delete;
  ScenarioInstance& operator=(const ScenarioInstance&) = delete;

  /// Executes the full timeline: warmup(); finish(). Call exactly once.
  void run();
  /// Steps 5-7: services, goals and traffic; leaves the clock at the
  /// meeting start. Call exactly once, before anything below.
  void warmup();
  /// Step 8: runs to the horizon, stops traffic, drains.
  void finish();

  /// Phase instants for this shard: warmup() ends at the meeting start,
  /// traffic stops at the horizon.
  sim::Time meeting_time() const;
  sim::Time horizon_time() const;

  /// Behavioral digest: seed, the medium's frame-trace digest
  /// (RadioMedium::behaviour_digest), medium stats, pings, registrations,
  /// the first goal's outcome, viewer updates. Cost counters (events(),
  /// absorbed()) stay out, so it is invariant to how many kernel events
  /// the same behaviour takes.
  std::uint64_t fingerprint() const;

  std::uint64_t events() const;
  std::uint64_t absorbed() const;
  std::uint64_t pings() const;
  /// True when every projector that is projecting shows an exact replica
  /// of a display's screen.
  bool replicas_converged() const;
  /// Outcome of the first goal ({} when the scenario declares none).
  const user::TaskOutcome& outcome() const { return first_outcome_; }
  sim::World& world() { return *world_; }
  /// The radio environment (fault injection targets the medium).
  env::Environment& environment() { return *env_; }
  /// Null unless RunOptions::telemetry.
  obs::Telemetry* telemetry() { return telemetry_.get(); }

  // --- checkpoint path (after warmup) ---------------------------------------

  /// Every stateful core's section and quiescence predicate, built on
  /// first use.
  snap::SnapshotRegistry& registry();
  /// True when every registered core is at a quiescent point; `why` names
  /// the first blocking core otherwise.
  bool quiescent(std::string* why = nullptr);
  /// Advances in 1 ms steps to the first quiescent instant at or after
  /// now() (no-op when already quiescent). Throws snap::SnapError naming
  /// the blocking core when no quiescent instant exists before the
  /// horizon.
  void settle();
  /// settle(), then serializes the full checkpoint blob.
  std::vector<std::uint8_t> checkpoint();
  /// checkpoint() into `scratch.blob`, byte for byte. Once the scratch
  /// (and each core's save buffers) have warmed, the serialization makes
  /// no heap allocation (the simulation settle() runs may): the fleet
  /// worker streams every cadenced and migration checkpoint through this
  /// call.
  void checkpoint_into(snap::SaveScratch& scratch);
  /// Overwrites this warmed-up instance's state from a full checkpoint
  /// blob, resuming at capture-instant + gap. The blob's framing is
  /// validated before anything moves; any other SnapError (counted in
  /// snap.restore_errors when telemetry is on) leaves the instance
  /// poisoned.
  void restore(std::span<const std::uint8_t> blob, sim::Time gap);

 private:
  struct ProjectorRuntime {
    std::unique_ptr<app::SmartProjector> projector;
    std::unique_ptr<disco::JiniClient> jini;  // export side
  };
  struct DisplayRuntime {
    int entity = -1;
    std::unique_ptr<app::PresenterDisplay> display;
    std::unique_ptr<rfb::SlideDeckWorkload> deck;
  };
  struct GoalRuntime {
    std::unique_ptr<app::ProjectorClient> client;  // present goals only
    std::unique_ptr<user::UserAgent> agent;
    user::TaskOutcome outcome;
  };
  struct TrafficRuntime {
    std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
    sim::EventHandle train_next;  // pre-scheduling generator (trains only)
    std::size_t parked = 0;       // burst sends scheduled, not yet run
  };

  void build_devices();
  /// Holds this shard's periods, payloads and phases to validate's rules
  /// (build_devices checks counts and positions).
  void check_timeline() const;
  void bind_ping_sinks();
  void build_services();
  void start_goals();
  void start_traffic();
  void stop_traffic();
  void arm_train(std::size_t traffic_index, sim::Time when, sim::Time period);
  sim::Callback train_tick(std::size_t traffic_index, sim::Time when,
                           sim::Time period);
  sim::Time train_period(std::size_t traffic_index) const;
  void send_ping(std::size_t traffic_index, std::size_t member);
  net::NetStack& stack_of(int entity, std::size_t member = 0);
  std::size_t member_count(int entity) const;
  DisplayRuntime* display_on(int entity);
  sim::Time phase(const Expr& e) const;
  void register_sections();

  const Scenario& scn_;
  std::size_t shard_id_;
  std::uint64_t seed_;
  RunOptions options_;

  // world_ before telemetry_: Telemetry detaches from the world in its
  // destructor, so it must be torn down while the world is still alive
  // (members destroy in reverse declaration order).
  std::unique_ptr<sim::World> world_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<env::Environment> env_;
  std::vector<std::unique_ptr<phys::Device>> devices_;
  std::vector<std::unique_ptr<net::NetStack>> stacks_;
  /// Per entity: (first stack index, member count) for this shard.
  std::vector<std::pair<std::size_t, std::size_t>> entity_stacks_;

  std::uint64_t pings_ = 0;
  std::vector<std::unique_ptr<disco::JiniRegistrar>> registrars_;
  std::vector<ProjectorRuntime> projectors_;
  std::vector<std::unique_ptr<disco::JiniClient>> actor_jinis_;  // per goal
  std::vector<DisplayRuntime> displays_;
  std::vector<GoalRuntime> goals_;
  std::vector<TrafficRuntime> traffic_;
  user::TaskOutcome first_outcome_;
  bool warmed_up_ = false;
  // Declared last: its closures reference everything above.
  std::unique_ptr<snap::SnapshotRegistry> registry_;
};

/// Fleet-level execution of a compiled scenario: `shards` instances over a
/// work-stealing pool, launched in shard order and seeded with
/// sim::shard_seed(seed, k). Results fold in shard order, so the
/// fingerprint is independent of the worker count.
struct FleetResult {
  std::vector<std::uint64_t> shard_fps;
  std::uint64_t fleet_fp = 0;
  std::uint64_t events = 0;
  std::uint64_t absorbed = 0;
  std::uint64_t pings = 0;
  std::uint64_t goals_succeeded = 0;
};

FleetResult run_fleet(const Scenario& scenario, std::size_t shards,
                      std::uint64_t seed, std::size_t workers,
                      RunOptions options = {});

}  // namespace aroma::scn

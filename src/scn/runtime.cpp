#include "scn/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "disco/service.hpp"
#include "env/mobility.hpp"
#include "lpc/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "phys/profile.hpp"
#include "sim/fleet.hpp"
#include "sim/random.hpp"
#include "snap/snapshot.hpp"
#include "user/faculties.hpp"

namespace aroma::scn {

namespace {
constexpr net::Port kPingPort = 7777;

/// Section tags, in registration (= restore) order.
constexpr std::uint32_t kTagSim = snap::tag4("SIM!");
constexpr std::uint32_t kTagRoom = snap::tag4("ROOM");
constexpr std::uint32_t kTagMedium = snap::tag4("MEDM");
constexpr std::uint32_t kTagPhys = snap::tag4("PHYS");
constexpr std::uint32_t kTagNet = snap::tag4("NETS");
constexpr std::uint32_t kTagStream = snap::tag4("STRM");
constexpr std::uint32_t kTagDisco = snap::tag4("DISC");
constexpr std::uint32_t kTagSession = snap::tag4("SESS");
constexpr std::uint32_t kTagRfb = snap::tag4("RFBC");
constexpr std::uint32_t kTagPixels = snap::tag4("PIXL");
constexpr std::uint32_t kTagUser = snap::tag4("USER");
constexpr std::uint32_t kTagMetrics = snap::tag4("OBSM");
constexpr std::uint32_t kTagSpans = snap::tag4("OBSS");

/// Agent names are part of the RNG contract: UserAgent forks the world RNG
/// with a tag that hashes the name, so the present-goal agent must be
/// "presenter" — the name the pinned smart_projector goldens were
/// recorded with.
const char* agent_name(GoalKind kind) {
  return kind == GoalKind::kPresent ? "presenter" : "explorer";
}

/// Structural guards: a restore target rebuilt from the same scenario,
/// shard and seed has exactly the checkpointed run's components.
void expect_count(snap::SectionReader& r, std::size_t n, const char* what) {
  if (r.u64() != n) {
    throw snap::SnapError(std::string(what) +
                          " count mismatch: structural rebuild diverged");
  }
}

/// Components that exist only once the workload created them (stream
/// managers, RFB server/viewer) are saved behind a presence flag.
template <typename T, typename Fn>
void save_opt(snap::SectionWriter& w, T* p, Fn&& save) {
  w.b(p != nullptr);
  if (p != nullptr) save(*p);
}
template <typename T, typename Fn>
void restore_opt(snap::SectionReader& r, T* p, const char* what,
                 Fn&& restore) {
  if (r.b() != (p != nullptr)) {
    throw snap::SnapError(std::string(what) + " presence mismatch");
  }
  if (p != nullptr) restore(*p);
}

void save_outcome(snap::SectionWriter& w, const user::TaskOutcome& o) {
  w.b(o.success);
  w.b(o.abandoned);
  w.u64(o.steps_completed);
  w.u64(o.errors);
  w.f64(o.final_frustration);
  w.duration(o.duration);
}

void restore_outcome(snap::SectionReader& r, user::TaskOutcome& o) {
  o.success = r.b();
  o.abandoned = r.b();
  o.steps_completed = static_cast<std::size_t>(r.u64());
  o.errors = r.u64();
  o.final_frustration = r.f64();
  o.duration = r.duration();
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// A shard-dependent value out of validate's range (scn/passes.cpp).
[[noreturn]] void shard_error(const std::string& what, std::size_t shard,
                              const std::string& why) {
  throw ScnError(what + " on shard " + std::to_string(shard) + ": " + why);
}
}  // namespace

ScenarioInstance::ScenarioInstance(const Scenario& scenario,
                                   std::size_t shard_id, std::uint64_t seed,
                                   RunOptions options)
    : scn_(scenario), shard_id_(shard_id), seed_(seed), options_(options) {
  world_ = std::make_unique<sim::World>(seed_);
  world_->arena().set_enabled(options_.use_arena);
  world_->sim().set_train_batching(kernel_trains(scn_));
  if (options_.telemetry) {
    telemetry_ = std::make_unique<obs::Telemetry>(*world_);
  }
  env::Environment::Params eparams;
  eparams.arena = env::Rect{{0, 0}, {scn_.topo_w, scn_.topo_h}};
  eparams.path_loss.seed = seed_;
  env_ = std::make_unique<env::Environment>(*world_, eparams);
  build_devices();
  check_timeline();
  bind_ping_sinks();
  traffic_.resize(scn_.traffic.size());
  goals_.reserve(scn_.goals.size());
}

ScenarioInstance::~ScenarioInstance() = default;

void ScenarioInstance::build_devices() {
  const EvalContext shard_ctx{shard_id_, 0};
  for (const EntityDecl& e : scn_.entities) {
    const double n = eval(*e.count, shard_ctx);
    if (!(n >= 0 && n <= 4096)) {
      shard_error("entity '" + e.name + "'", shard_id_,
                  "group count " + num(n) + " out of range [0, 4096]");
    }
    const auto count = static_cast<std::size_t>(n);
    entity_stacks_.emplace_back(stacks_.size(), count);
    phys::DeviceProfile profile;
    if (!phys::profiles::by_name(e.profile, &profile)) {
      throw ScnError("unknown device profile '" + e.profile + "'");
    }
    for (std::size_t i = 0; i < count; ++i) {
      const EvalContext ctx{shard_id_, i};
      const env::Vec2 pos{eval(*e.pos_x, ctx), eval(*e.pos_y, ctx)};
      if (!(pos.x >= 0 && pos.x <= scn_.topo_w && pos.y >= 0 &&
            pos.y <= scn_.topo_h)) {
        shard_error("entity '" + e.name + "'", shard_id_,
                    "member " + std::to_string(i) + " placed at (" +
                        num(pos.x) + ", " + num(pos.y) +
                        "), outside the topology");
      }
      phys::Device::Options opt;
      opt.channel = static_cast<int>(eval(*e.channel, ctx));
      const std::uint64_t id = devices_.size() + 1;
      devices_.push_back(std::make_unique<phys::Device>(
          *world_, *env_, id, profile,
          std::make_unique<env::StaticMobility>(pos), opt));
      stacks_.push_back(
          std::make_unique<net::NetStack>(*world_, devices_.back()->mac()));
    }
  }
}

void ScenarioInstance::check_timeline() const {
  for (const TrafficDecl& t : scn_.traffic) {
    const bool ping = t.kind == TrafficKind::kPing;
    const auto what = [&t, ping] {
      return std::string(ping ? "ping" : "slides") + " traffic from '" +
             t.from.name + "'";
    };
    const std::size_t members = ping ? member_count(t.from.index) : 1;
    for (std::size_t m = 0; m < members; ++m) {
      const EvalContext ctx{shard_id_, m};
      const double period = eval(*t.period, ctx);
      if (!(period > 0 && std::isfinite(period))) {
        shard_error(what(), shard_id_,
                    "period " + num(period) + " must be positive");
      }
      if (!ping) continue;
      const double payload = eval(*t.payload, ctx);
      if (!(payload >= 1 && payload <= 1400)) {
        shard_error(what(), shard_id_,
                    "payload " + num(payload) + " out of range [1, 1400] bytes");
      }
    }
  }
  const EvalContext ctx{shard_id_, 0};
  const Phases& p = scn_.phases;
  const double settle = eval(*p.settle, ctx);
  const double meeting = eval(*p.meeting, ctx);
  for (const double v : {settle, meeting, eval(*p.horizon, ctx),
                         eval(*p.drain, ctx)}) {
    if (!std::isfinite(v)) {
      shard_error("scenario '" + scn_.name + "'", shard_id_,
                  "phase instant " + num(v) + " is not finite");
    }
  }
  if (settle > meeting) {
    shard_error("scenario '" + scn_.name + "'", shard_id_,
                "settle phase (" + num(settle) + "s) ends after the meeting (" +
                    num(meeting) + "s)");
  }
}

void ScenarioInstance::bind_ping_sinks() {
  std::set<int> bound;
  for (const TrafficDecl& t : scn_.traffic) {
    if (t.kind != TrafficKind::kPing) continue;
    if (!bound.insert(t.to.index).second) continue;
    stack_of(t.to.index)
        .bind(kPingPort, [this](const net::Datagram&) { ++pings_; });
  }
}

void ScenarioInstance::build_services() {
  for (const RegistrarDecl& r : scn_.registrars) {
    registrars_.push_back(
        std::make_unique<disco::JiniRegistrar>(*world_, stack_of(r.on.index)));
  }
  for (const ProjectorDecl& p : scn_.projectors) {
    ProjectorRuntime rt;
    rt.projector =
        std::make_unique<app::SmartProjector>(*world_, stack_of(p.on.index));
    rt.jini =
        std::make_unique<disco::JiniClient>(*world_, stack_of(p.on.index));
    projectors_.push_back(std::move(rt));
  }
  for (const GoalDecl& g : scn_.goals) {
    actor_jinis_.push_back(
        std::make_unique<disco::JiniClient>(*world_, stack_of(g.actor.index)));
  }
  for (const DisplayDecl& d : scn_.displays) {
    const EvalContext ctx{shard_id_, 0};
    DisplayRuntime rt;
    rt.entity = d.on.index;
    rt.display = std::make_unique<app::PresenterDisplay>(
        *world_, stack_of(d.on.index),
        static_cast<int>(eval(*d.width, ctx)),
        static_cast<int>(eval(*d.height, ctx)));
    // World-free construction: the deck costs no RNG draws, so owning it
    // next to its display cannot perturb the canonical fork sequence.
    rt.deck = std::make_unique<rfb::SlideDeckWorkload>(
        static_cast<std::uint64_t>(eval(*d.deck_seed, ctx)));
    displays_.push_back(std::move(rt));
  }
  for (ProjectorRuntime& p : projectors_) {
    p.projector->export_services(*p.jini, {});
  }
}

void ScenarioInstance::start_goals() {
  for (std::size_t g = 0; g < scn_.goals.size(); ++g) {
    const GoalDecl& decl = scn_.goals[g];
    goals_.emplace_back();
    GoalRuntime& rt = goals_.back();

    user::Faculties persona;
    if (!user::personas::by_name(decl.persona, &persona)) {
      throw ScnError("unknown persona '" + decl.persona + "'");
    }

    std::vector<user::ProcedureStep> procedure;
    if (decl.kind == GoalKind::kPresent) {
      rt.client = std::make_unique<app::ProjectorClient>(
          *world_, stack_of(decl.actor.index),
          stack_of(scn_.projectors.front().on.index).node_id(),
          app::kProjectionPort);
      DisplayRuntime* disp = display_on(decl.actor.index);
      if (disp == nullptr) {
        throw ScnError("present goal actor has no display");
      }
      rt.agent = std::make_unique<user::UserAgent>(
          *world_, agent_name(decl.kind), persona);

      app::PresenterDisplay* display = disp->display.get();
      rfb::SlideDeckWorkload* deck = disp->deck.get();
      disco::JiniClient* jini = actor_jinis_[g].get();
      app::ProjectorClient* client = rt.client.get();
      const net::NodeId actor_node = stack_of(decl.actor.index).node_id();
      procedure.push_back({"start-vnc-server",
                           [display, deck](std::function<void(bool)> done) {
                             display->start_server();
                             display->apply(*deck);
                             done(true);
                           },
                           0.4, false});
      procedure.push_back(
          {"discover-service",
           [jini](std::function<void(bool)> done) {
             jini->lookup(disco::ServiceTemplate{app::kProjectionType, {}},
                          [done](std::vector<disco::ServiceDescription> s) {
                            done(!s.empty());
                          });
           },
           0.5, false});
      procedure.push_back({"acquire-projection",
                           [client](std::function<void(bool)> done) {
                             client->acquire(std::move(done));
                           },
                           0.5, false});
      procedure.push_back({"start-projection",
                           [client, actor_node](std::function<void(bool)> done) {
                             client->start_projection(actor_node,
                                                      std::move(done));
                           },
                           0.6, false});
    } else {
      rt.agent = std::make_unique<user::UserAgent>(
          *world_, agent_name(decl.kind), persona);
      disco::JiniClient* jini = actor_jinis_[g].get();
      procedure.push_back(
          {"discover-service",
           [jini](std::function<void(bool)> done) {
             jini->lookup(disco::ServiceTemplate{app::kProjectionType, {}},
                          [done](std::vector<disco::ServiceDescription> s) {
                            done(!s.empty());
                          });
           },
           0.5, false});
    }

    rt.agent->attempt(std::move(procedure),
                      [this, g](const user::TaskOutcome& o) {
                        goals_[g].outcome = o;
                        if (g == 0) first_outcome_ = o;
                      });
  }
}

void ScenarioInstance::arm_train(std::size_t traffic_index, sim::Time when,
                                 sim::Time period) {
  traffic_[traffic_index].train_next =
      world_->sim().schedule_at(when, sim::EventCategory::kTimer,
                                train_tick(traffic_index, when, period));
}

sim::Callback ScenarioInstance::train_tick(std::size_t traffic_index,
                                           sim::Time when, sim::Time period) {
  return [this, traffic_index, when, period] {
    const TrafficDecl& t = scn_.traffic[traffic_index];
    const std::size_t members = member_count(t.from.index);
    // Pre-schedule the whole tick as one same-time burst: every member's
    // send parks at `when`, and the kernel's train batching absorbs the
    // burst instead of heap-pushing each event.
    traffic_[traffic_index].parked += members;
    for (std::size_t m = 0; m < members; ++m) {
      world_->sim().schedule_at(
          when, sim::EventCategory::kTimer, [this, traffic_index, m] {
            --traffic_[traffic_index].parked;
            send_ping(traffic_index, m);
          });
    }
    arm_train(traffic_index, when + period, period);
  };
}

sim::Time ScenarioInstance::train_period(std::size_t traffic_index) const {
  return sim::Time::sec(
      eval(*scn_.traffic[traffic_index].period, EvalContext{shard_id_, 0}));
}

void ScenarioInstance::send_ping(std::size_t traffic_index,
                                 std::size_t member) {
  const TrafficDecl& t = scn_.traffic[traffic_index];
  const auto payload = static_cast<std::size_t>(
      eval(*t.payload, EvalContext{shard_id_, member}));
  stack_of(t.from.index, member)
      .send({stack_of(t.to.index).node_id(), kPingPort}, kPingPort,
            std::vector<std::byte>(payload, std::byte{0x5a}), {});
}

void ScenarioInstance::start_traffic() {
  for (std::size_t ti = 0; ti < scn_.traffic.size(); ++ti) {
    const TrafficDecl& t = scn_.traffic[ti];
    if (t.kind == TrafficKind::kPing) {
      const std::size_t members = member_count(t.from.index);
      if (members == 0) continue;
      if (t.train_lowered) {
        const sim::Time period = train_period(ti);
        arm_train(ti, world_->now() + period, period);
      } else {
        for (std::size_t m = 0; m < members; ++m) {
          const double period = eval(*t.period, EvalContext{shard_id_, m});
          traffic_[ti].timers.push_back(std::make_unique<sim::PeriodicTimer>(
              world_->sim(), sim::Time::sec(period),
              [this, ti, m] { send_ping(ti, m); }));
          traffic_[ti].timers.back()->start();
        }
      }
    } else {
      DisplayRuntime* disp = display_on(t.from.index);
      if (disp == nullptr) throw ScnError("slides traffic without a display");
      app::PresenterDisplay* display = disp->display.get();
      rfb::SlideDeckWorkload* deck = disp->deck.get();
      traffic_[ti].timers.push_back(std::make_unique<sim::PeriodicTimer>(
          world_->sim(),
          sim::Time::sec(eval(*t.period, EvalContext{shard_id_, 0})),
          [display, deck] { display->apply(*deck); }));
      traffic_[ti].timers.back()->start();
    }
  }
}

void ScenarioInstance::stop_traffic() {
  // Reverse declaration order (slides before pings): cancel order feeds
  // the cancelled-event counter the pinned goldens were recorded with.
  for (std::size_t k = scn_.traffic.size(); k-- > 0;) {
    if (traffic_[k].train_next.valid()) {
      world_->sim().cancel(traffic_[k].train_next);
      traffic_[k].train_next = sim::EventHandle{};
    }
    for (auto& timer : traffic_[k].timers) timer->stop();
  }
}

sim::Time ScenarioInstance::phase(const Expr& e) const {
  return sim::Time::sec(eval(e, EvalContext{shard_id_, 0}));
}

sim::Time ScenarioInstance::meeting_time() const {
  return phase(*scn_.phases.meeting);
}

sim::Time ScenarioInstance::horizon_time() const {
  return phase(*scn_.phases.horizon);
}

void ScenarioInstance::run() {
  warmup();
  finish();
}

void ScenarioInstance::warmup() {
  if (warmed_up_) throw ScnError("ScenarioInstance::warmup called twice");
  warmed_up_ = true;
  build_services();
  world_->sim().run_until(phase(*scn_.phases.settle));
  start_goals();
  world_->sim().run_until(meeting_time());
  start_traffic();
}

void ScenarioInstance::finish() {
  if (!warmed_up_) throw ScnError("ScenarioInstance::finish before warmup");
  const sim::Time horizon = horizon_time();
  world_->sim().run_until(horizon);
  stop_traffic();
  world_->sim().run_until(horizon + phase(*scn_.phases.drain));
}

// --- checkpoint path ---------------------------------------------------------

snap::SnapshotRegistry& ScenarioInstance::registry() {
  if (!warmed_up_) {
    throw snap::SnapError("scenario checkpoint path used before warmup");
  }
  if (registry_ == nullptr) {
    registry_ = std::make_unique<snap::SnapshotRegistry>();
    register_sections();
  }
  return *registry_;
}

bool ScenarioInstance::quiescent(std::string* why) {
  return registry().quiescent(why);
}

void ScenarioInstance::settle() {
  // Deterministic: the first quiescent instant is a pure function of the
  // seed, found in fixed 1 ms steps. Bounded by the horizon: finish() stops
  // traffic there, so a capture past it could not resume the same timeline.
  std::string why;
  while (!quiescent(&why)) {
    if (world_->now() >= horizon_time()) {
      throw snap::SnapError(
          "scenario '" + scn_.name + "' shard " + std::to_string(shard_id_) +
          " never reached a quiescent instant before its horizon: " + why);
    }
    world_->sim().run_until(world_->now() + sim::Time::ms(1));
  }
}

std::vector<std::uint8_t> ScenarioInstance::checkpoint() {
  snap::SaveScratch scratch;
  checkpoint_into(scratch);
  return std::move(scratch.blob);
}

void ScenarioInstance::checkpoint_into(snap::SaveScratch& scratch) {
  settle();
  registry_->save_all_into(world_->now(), scratch);
}

void ScenarioInstance::restore(std::span<const std::uint8_t> blob,
                               sim::Time gap) {
  obs::Counter* errors =
      obs::counter(*world_, "snap.restore_errors", lpc::Layer::kPhysical);
  try {
    // Framing and CRC first: a damaged blob is rejected before the settle
    // loop (or anything else) moves the world.
    const snap::SnapReader reader(blob);
    const snap::Section* simsec = reader.find(kTagSim);
    if (simsec == nullptr) {
      throw snap::SnapError("blob is missing the SIM section");
    }
    snap::SectionReader peek(simsec->payload, sim::Time::zero());
    const sim::Time captured = peek.duration();
    settle();
    snap::RestoreCtx ctx;
    ctx.gap = gap;
    ctx.now = captured + gap;
    if (ctx.now < world_->now()) {
      throw snap::SnapError(
          "restore would move the clock backwards past the settle point");
    }
    // Drop the rebuilt world's pending events; each section re-arms the
    // saved set with original (when, seq, id) identities.
    world_->sim().clear_pending();
    registry_->restore_all(reader, ctx);
  } catch (const snap::SnapError&) {
    if (errors != nullptr) errors->add();
    throw;
  }
  if (obs::Counter* c =
          obs::counter(*world_, "snap.restores", lpc::Layer::kPhysical)) {
    c->add();
  }
}

void ScenarioInstance::register_sections() {
  snap::SnapshotRegistry& reg = *registry_;
  using snap::RestoreCtx;
  using snap::SectionReader;
  using snap::SectionWriter;

  // SIM! — kernel clock + identity counters + the root RNG. The absolute
  // capture clock is the section's FIRST field so restore() can learn the
  // capture instant before constructing the rebased readers.
  reg.add(
      kTagSim, "sim",
      [this](SectionWriter& w) {
        const sim::Simulator& s = world_->sim();
        w.duration(s.now());  // absolute, deliberately not rebased
        w.u64(s.next_seq());
        w.u64(s.next_id());
        w.u64(s.executed());
        w.u64(s.cancelled());
        w.u64(s.stale_handle_rejects());
        w.u64(s.peak_pending());
        const sim::Rng::State st = world_->rng().state();
        for (int i = 0; i < 4; ++i) w.u64(st.s[i]);
        w.f64(st.cached_normal);
        w.b(st.has_cached_normal);
      },
      [this](SectionReader& r, const RestoreCtx& ctx) {
        (void)r.duration();  // capture clock; already folded into ctx.now
        const std::uint64_t next_seq = r.u64();
        const std::uint64_t next_id = r.u64();
        const std::uint64_t executed = r.u64();
        const std::uint64_t cancelled = r.u64();
        const std::uint64_t stale = r.u64();
        const auto peak = static_cast<std::size_t>(r.u64());
        world_->sim().restore_state(ctx.now, next_seq, next_id, executed,
                                    cancelled, stale, peak);
        sim::Rng::State st;
        for (int i = 0; i < 4; ++i) st.s[i] = r.u64();
        st.cached_normal = r.f64();
        st.has_cached_normal = r.b();
        world_->rng().set_state(st);
      });

  // ROOM — scenario-level state: ping tally, goal outcomes, slide deck
  // generators, and the traffic timers' event identities. A train
  // generator's one pending tick is saved by identity, like
  // PeriodicTimer::save; its parked burst is empty at quiescence.
  reg.add(
      kTagRoom, "room",
      [this](SectionWriter& w) {
        w.u64(pings_);
        w.u64(goals_.size());
        for (const GoalRuntime& g : goals_) save_outcome(w, g.outcome);
        w.u64(displays_.size());
        for (const DisplayRuntime& d : displays_) d.deck->save(w);
        w.u64(traffic_.size());
        for (const TrafficRuntime& t : traffic_) {
          w.u64(t.timers.size());
          for (const auto& timer : t.timers) timer->save(w);
          const sim::Simulator::PendingEventInfo info =
              world_->sim().pending_event_info(t.train_next);
          w.b(info.valid);
          if (info.valid) {
            w.time_delta(info.when);
            w.u64(info.seq);
            w.u64(info.id);
          }
        }
      },
      [this](SectionReader& r, const RestoreCtx&) {
        pings_ = r.u64();
        expect_count(r, goals_.size(), "goal");
        for (GoalRuntime& g : goals_) restore_outcome(r, g.outcome);
        if (!goals_.empty()) first_outcome_ = goals_.front().outcome;
        expect_count(r, displays_.size(), "display");
        for (DisplayRuntime& d : displays_) d.deck->restore(r);
        expect_count(r, traffic_.size(), "traffic");
        for (std::size_t ti = 0; ti < traffic_.size(); ++ti) {
          TrafficRuntime& t = traffic_[ti];
          expect_count(r, t.timers.size(), "traffic timer");
          for (auto& timer : t.timers) timer->restore(r);
          // The warmup-armed tick went with clear_pending(): overwrite the
          // stale handle, never cancel it.
          t.train_next = sim::EventHandle{};
          t.parked = 0;
          if (r.b()) {
            const sim::Time when = r.time_delta();
            const std::uint64_t seq = r.u64();
            const std::uint64_t id = r.u64();
            t.train_next = world_->sim().restore_event(
                when, seq, id, sim::EventCategory::kTimer,
                train_tick(ti, when, train_period(ti)));
          }
        }
      });

  reg.add(
      kTagMedium, "medium",
      [this](SectionWriter& w) { env_->medium().save(w); },
      [this](SectionReader& r, const RestoreCtx&) {
        env_->medium().restore(r);
      });

  // PHYS — per device, construction order: battery, transceiver, MAC.
  reg.add(
      kTagPhys, "phys",
      [this](SectionWriter& w) {
        w.u64(devices_.size());
        for (const auto& d : devices_) {
          w.b(d->has_battery());
          if (d->has_battery()) d->battery().save(w);
          w.b(d->has_radio());
          if (d->has_radio()) {
            d->radio().save(w);
            d->mac().save(w);
          }
        }
      },
      [this](SectionReader& r, const RestoreCtx&) {
        expect_count(r, devices_.size(), "device");
        for (auto& d : devices_) {
          if (r.b() != d->has_battery()) {
            throw snap::SnapError("battery presence mismatch");
          }
          if (d->has_battery()) d->battery().restore(r);
          if (r.b() != d->has_radio()) {
            throw snap::SnapError("radio presence mismatch");
          }
          if (d->has_radio()) {
            d->radio().restore(r);
            d->mac().restore(r);
          }
        }
      });

  reg.add(
      kTagNet, "net",
      [this](SectionWriter& w) {
        w.u64(stacks_.size());
        for (const auto& s : stacks_) s->save(w);
      },
      [this](SectionReader& r, const RestoreCtx&) {
        expect_count(r, stacks_.size(), "stack");
        for (auto& s : stacks_) s->restore(r);
      });

  // STRM — display (RFB server side) then projector (viewer side) stream
  // managers. Connection identity is structural; StreamManager::restore
  // matches serialized connections 1:1 against the rebuilt set by key.
  reg.add(
      kTagStream, "stream",
      [this](SectionWriter& w) {
        const auto save = [&w](net::StreamManager& m) { m.save(w); };
        for (DisplayRuntime& d : displays_) {
          save_opt(w, d.display->stream_manager(), save);
        }
        for (ProjectorRuntime& p : projectors_) {
          save_opt(w, p.projector->stream_manager(), save);
        }
      },
      [this](SectionReader& r, const RestoreCtx&) {
        const auto restore = [&r](net::StreamManager& m) { m.restore(r); };
        for (DisplayRuntime& d : displays_) {
          restore_opt(r, d.display->stream_manager(),
                      "display stream manager", restore);
        }
        for (ProjectorRuntime& p : projectors_) {
          restore_opt(r, p.projector->stream_manager(),
                      "projector stream manager", restore);
        }
      });

  reg.add(
      kTagDisco, "disco",
      [this](SectionWriter& w) {
        for (const auto& r : registrars_) r->save(w);
        for (const ProjectorRuntime& p : projectors_) p.jini->save(w);
        for (const auto& j : actor_jinis_) j->save(w);
      },
      [this](SectionReader& r, const RestoreCtx&) {
        for (auto& registrar : registrars_) registrar->restore(r);
        for (ProjectorRuntime& p : projectors_) p.jini->restore(r);
        for (auto& j : actor_jinis_) j->restore(r);
      });

  reg.add(
      kTagSession, "session",
      [this](SectionWriter& w) {
        for (const ProjectorRuntime& p : projectors_) p.projector->save(w);
        for (const GoalRuntime& g : goals_) {
          if (g.client) g.client->save(w);
        }
      },
      [this](SectionReader& r, const RestoreCtx&) {
        for (ProjectorRuntime& p : projectors_) p.projector->restore(r);
        for (GoalRuntime& g : goals_) {
          if (g.client) g.client->restore(r);
        }
      });

  // RFBC — protocol control state (request flags, stats); the caches and
  // pixels behind it go in PIXL. The split is part of the format since v3:
  // merging the two sections would change every blob.
  reg.add(
      kTagRfb, "rfb",
      [this](SectionWriter& w) {
        for (DisplayRuntime& d : displays_) {
          save_opt(w, d.display->server_mutable(),
                   [&w](rfb::RfbServer& s) { s.save(w); });
        }
        for (ProjectorRuntime& p : projectors_) {
          save_opt(w, p.projector->viewer_client(),
                   [&w](rfb::RfbClient& c) { c.save(w); });
        }
      },
      [this](SectionReader& r, const RestoreCtx&) {
        for (DisplayRuntime& d : displays_) {
          restore_opt(r, d.display->server_mutable(), "rfb server",
                      [&r](rfb::RfbServer& s) { s.restore(r); });
        }
        for (ProjectorRuntime& p : projectors_) {
          restore_opt(r, p.projector->viewer_client(), "rfb viewer",
                      [&r](rfb::RfbClient& c) { c.restore(r); });
        }
      });

  // PIXL — the bulky, slow-churn payload: each screen, the server's
  // cached-encoding state, and each viewer's replica + tile cache.
  reg.add(
      kTagPixels, "pixels",
      [this](SectionWriter& w) {
        for (DisplayRuntime& d : displays_) {
          d.display->screen().save(w);
          d.display->save(w);
          save_opt(w, d.display->server_mutable(),
                   [&w](rfb::RfbServer& s) { s.save_cache(w); });
        }
        for (ProjectorRuntime& p : projectors_) {
          save_opt(w, p.projector->viewer_client(),
                   [&w](rfb::RfbClient& c) { c.save_cache(w); });
        }
      },
      [this](SectionReader& r, const RestoreCtx&) {
        for (DisplayRuntime& d : displays_) {
          d.display->screen().restore(r);
          d.display->restore(r);
          restore_opt(r, d.display->server_mutable(), "rfb server cache",
                      [&r](rfb::RfbServer& s) { s.restore_cache(r); });
        }
        for (ProjectorRuntime& p : projectors_) {
          restore_opt(r, p.projector->viewer_client(), "rfb viewer cache",
                      [&r](rfb::RfbClient& c) { c.restore_cache(r); });
        }
      });

  reg.add(
      kTagUser, "user",
      [this](SectionWriter& w) {
        for (const GoalRuntime& g : goals_) g.agent->save(w);
      },
      [this](SectionReader& r, const RestoreCtx&) {
        for (GoalRuntime& g : goals_) g.agent->restore(r);
      });

  // Telemetry sections are optional both ways: a telemetry-off reader skips
  // them in a telemetry-on blob, and vice versa.
  if (telemetry_ != nullptr) {
    reg.add(
        kTagMetrics, "metrics",
        [this](SectionWriter& w) { telemetry_->metrics().save(w); },
        [this](SectionReader& r, const RestoreCtx&) {
          telemetry_->metrics().restore(r);
        },
        snap::kSectionOptional);
    reg.add(
        kTagSpans, "spans",
        [this](SectionWriter& w) { telemetry_->spans().save(w); },
        [this](SectionReader& r, const RestoreCtx&) {
          telemetry_->spans().restore(r);
        },
        snap::kSectionOptional);
  }

  // Quiescence predicates: every core that can hold an un-reconstructible
  // in-flight closure vetoes checkpointing until it drains.
  reg.add_quiescence(
      [this](std::string* why) { return env_->medium().snap_quiescent(why); });
  reg.add_quiescence([this](std::string* why) {
    for (const auto& d : devices_) {
      if (d->has_radio() && !d->mac().snap_quiescent(why)) return false;
    }
    return true;
  });
  reg.add_quiescence([this](std::string* why) {
    for (DisplayRuntime& d : displays_) {
      net::StreamManager* m = d.display->stream_manager();
      if (m != nullptr && !m->snap_quiescent(why)) return false;
    }
    for (ProjectorRuntime& p : projectors_) {
      net::StreamManager* m = p.projector->stream_manager();
      if (m != nullptr && !m->snap_quiescent(why)) return false;
    }
    return true;
  });
  reg.add_quiescence([this](std::string* why) {
    for (const ProjectorRuntime& p : projectors_) {
      if (!p.jini->snap_quiescent(why)) return false;
    }
    for (const auto& j : actor_jinis_) {
      if (!j->snap_quiescent(why)) return false;
    }
    return true;
  });
  reg.add_quiescence([this](std::string* why) {
    for (DisplayRuntime& d : displays_) {
      rfb::RfbServer* srv = d.display->server_mutable();
      if (srv != nullptr && !srv->snap_quiescent(why)) return false;
    }
    for (ProjectorRuntime& p : projectors_) {
      rfb::RfbClient* viewer = p.projector->viewer_client();
      if (viewer != nullptr && !viewer->snap_quiescent(why)) return false;
    }
    return true;
  });
  reg.add_quiescence([this](std::string* why) {
    for (const GoalRuntime& g : goals_) {
      if (g.client && !g.client->snap_quiescent(why)) return false;
    }
    return true;
  });
  reg.add_quiescence([this](std::string* why) {
    for (const GoalRuntime& g : goals_) {
      if (!g.agent->snap_quiescent(why)) return false;
    }
    return true;
  });
  reg.add_quiescence([this](std::string* why) {
    for (std::size_t ti = 0; ti < traffic_.size(); ++ti) {
      if (traffic_[ti].parked != 0) {
        if (why) {
          *why = "traffic '" + scn_.traffic[ti].from.name +
                 "': train burst parked";
        }
        return false;
      }
    }
    return true;
  });
}

std::uint64_t ScenarioInstance::fingerprint() const {
  const env::MediumStats& m = env_->medium().stats();
  // Behaviour only: the frame trace digest, never the executed-event count,
  // so a MAC that sends the same frames with fewer events keeps it.
  std::uint64_t fp = sim::mix_hash(seed_, env_->medium().behaviour_digest());
  fp = sim::mix_hash(fp, m.transmissions);
  fp = sim::mix_hash(fp, m.deliveries_attempted);
  fp = sim::mix_hash(fp, m.deliveries_decodable);
  fp = sim::mix_hash(fp, m.losses_sinr);
  fp = sim::mix_hash(fp, m.losses_half_duplex);
  fp = sim::mix_hash(fp, pings_);
  std::uint64_t registered = 0;
  for (const auto& r : registrars_) registered += r->registered_count();
  fp = sim::mix_hash(fp, registered);
  fp = sim::mix_hash(fp, first_outcome_.success ? 1 : 0);
  fp = sim::mix_hash(fp, first_outcome_.steps_completed);
  fp = sim::mix_hash(fp, first_outcome_.errors);
  std::uint64_t updates = 0;
  for (const ProjectorRuntime& p : projectors_) {
    if (p.projector->viewer() != nullptr) {
      updates += p.projector->viewer()->stats().updates_received;
    }
  }
  fp = sim::mix_hash(fp, updates);
  return fp;
}

std::uint64_t ScenarioInstance::events() const {
  return world_->sim().executed();
}
std::uint64_t ScenarioInstance::absorbed() const {
  return world_->sim().absorbed();
}
std::uint64_t ScenarioInstance::pings() const { return pings_; }

bool ScenarioInstance::replicas_converged() const {
  return std::all_of(
      projectors_.begin(), projectors_.end(), [this](const auto& p) {
        const rfb::Framebuffer* replica = p.projector->projected();
        return replica == nullptr ||
               std::any_of(displays_.begin(), displays_.end(),
                           [replica](const DisplayRuntime& d) {
                             return d.display->screen().same_content(*replica);
                           });
      });
}

net::NetStack& ScenarioInstance::stack_of(int entity, std::size_t member) {
  const auto& [base, count] = entity_stacks_[static_cast<std::size_t>(entity)];
  if (member >= count) {
    throw ScnError("entity '" +
                   scn_.entities[static_cast<std::size_t>(entity)].name +
                   "' has no member " + std::to_string(member) +
                   " on shard " + std::to_string(shard_id_));
  }
  return *stacks_[base + member];
}

std::size_t ScenarioInstance::member_count(int entity) const {
  return entity_stacks_[static_cast<std::size_t>(entity)].second;
}

ScenarioInstance::DisplayRuntime* ScenarioInstance::display_on(int entity) {
  for (DisplayRuntime& d : displays_) {
    if (d.entity == entity) return &d;
  }
  return nullptr;
}

FleetResult run_fleet(const Scenario& scenario, std::size_t shards,
                      std::uint64_t seed, std::size_t workers,
                      RunOptions options) {
  struct ShardResult {
    std::uint64_t fp = 0, events = 0, absorbed = 0, pings = 0;
    bool succeeded = false;
  };
  std::vector<ShardResult> results(shards);
  sim::WorkStealingPool::run(
      workers, shards, [&](std::size_t shard, std::size_t) {
        ScenarioInstance inst(scenario, shard, sim::shard_seed(seed, shard),
                              options);
        inst.run();
        ShardResult r;
        r.fp = inst.fingerprint();
        r.events = inst.events();
        r.absorbed = inst.absorbed();
        r.pings = inst.pings();
        r.succeeded = inst.outcome().success;
        results[shard] = r;
      });

  FleetResult out;
  out.shard_fps.reserve(shards);
  for (const ShardResult& r : results) {
    out.shard_fps.push_back(r.fp);
    out.events += r.events;
    out.absorbed += r.absorbed;
    out.pings += r.pings;
    out.goals_succeeded += r.succeeded ? 1 : 0;
  }
  out.fleet_fp = sim::fleet_fingerprint(out.shard_fps);
  return out;
}

}  // namespace aroma::scn

#include "fleet/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <string>

#include "fleet/worker.hpp"
#include "sim/fleet.hpp"
#include "snap/format.hpp"

namespace aroma::fleet {

namespace {
constexpr int kPollMs = 20;
constexpr std::int64_t kHandshakeDeadlineNs = 30'000'000'000;  // 30 s
constexpr std::int64_t kShutdownDeadlineNs = 30'000'000'000;
}  // namespace

struct Coordinator::WorkerSlot {
  std::unique_ptr<WorkerProcess> proc;
  bool handshaken = false;
  bool alive = false;   // spawned, not yet known dead
  bool bye = false;     // clean shutdown acknowledged
  bool kill_sent = false;
  bool watchdog_fired = false;
  std::int64_t last_frame_ns = 0;
  std::uint64_t ckpts = 0;  // checkpoints streamed by this worker
  std::uint32_t pid = 0;
};

struct Coordinator::ShardState {
  ShardSpec spec;
  std::size_t owner = 0;
  bool done = false;
  std::uint64_t fp = 0;
  std::uint64_t events = 0;
  std::uint64_t ckpts = 0;  // cadenced checkpoints received
  bool has_blob = false;
  std::vector<std::uint8_t> blob;  // last full checkpoint (recovery source)
  std::int64_t captured_ns = 0;
  // In-flight migration state.
  bool migrating = false;
  std::size_t migrate_target = 0;
  std::int64_t migrate_t0_ns = 0;
  // In-flight recovery state.
  bool recovering = false;
  // Result payload.
  std::vector<std::uint8_t> metrics_payload;
  std::int64_t result_now_ns = 0;
};

Coordinator::Coordinator(FleetOptions options) : options_(std::move(options)) {}

FleetReport Coordinator::run() {
  const FleetOptions& opt = options_;
  if (opt.workers == 0) throw FleetError("fleet needs at least one worker");
  if (opt.shards == 0) throw FleetError("fleet needs at least one shard");
  if (opt.scenario.empty()) {
    throw FleetError("fleet needs a compiled scenario blob");
  }

  FleetReport report;
  obs::Counter& c_migrations =
      fleet_metrics_.counter("fleet.migrations", lpc::Layer::kResource);
  obs::Counter& c_deaths =
      fleet_metrics_.counter("fleet.worker_deaths", lpc::Layer::kResource);
  obs::Counter& c_bytes =
      fleet_metrics_.counter("fleet.control_bytes", lpc::Layer::kResource);
  obs::Counter& c_ckpts = fleet_metrics_.counter("fleet.checkpoints_streamed",
                                                 lpc::Layer::kResource);
  obs::Counter& c_watchdog =
      fleet_metrics_.counter("fleet.watchdog_fires", lpc::Layer::kResource);
  obs::HdrHistogram& h_migration =
      fleet_metrics_.hdr("fleet.migration_ns", lpc::Layer::kResource);

  const lpc::IssueClassifier classifier;
  const auto file_issue = [&](std::string description, double severity) {
    lpc::Issue issue;
    issue.description = std::move(description);
    issue.severity = severity;
    issue.entity = "fleet coordinator";
    classifier.assign(issue);
    issues_.add(std::move(issue));
  };

  // -------------------------------------------------------------- spawn
  std::vector<WorkerSlot> workers(opt.workers);
  for (std::size_t w = 0; w < opt.workers; ++w) {
    if (opt.worker_argv.empty()) {
      WorkerOptions wo;
      wo.heartbeat_interval_ms = opt.heartbeat_interval_ms;
      workers[w].proc = std::make_unique<WorkerProcess>(WorkerProcess::spawn(
          [wo](int fd) { return worker_main(fd, wo); }));
    } else {
      workers[w].proc =
          std::make_unique<WorkerProcess>(WorkerProcess::spawn(opt.worker_argv));
    }
    workers[w].alive = true;
    workers[w].last_frame_ns = monotonic_ns();
  }

  std::size_t alive_count = opt.workers;
  const auto mark_dead = [&](std::size_t w) {
    if (!workers[w].alive) return;
    workers[w].alive = false;
    --alive_count;
    workers[w].proc->kill();
    workers[w].proc->wait();
  };

  // ---------------------------------------------------------- handshake
  // Every worker leads with Hello; incompatibility (wire protocol, snap
  // format version, endianness) is rejected here, before any shard or
  // checkpoint blob is entrusted to the peer.
  {
    const std::int64_t deadline = monotonic_ns() + kHandshakeDeadlineNs;
    std::size_t pending = opt.workers;
    while (pending > 0) {
      if (monotonic_ns() > deadline) {
        throw FleetError("worker handshake timed out");
      }
      for (std::size_t w = 0; w < opt.workers; ++w) {
        WorkerSlot& slot = workers[w];
        if (slot.handshaken || !slot.alive) continue;
        Frame f;
        const RecvStatus st = slot.proc->channel().recv(f, kPollMs);
        if (st == RecvStatus::kEof) {
          throw FleetError("worker " + std::to_string(w) +
                           " died before handshake");
        }
        if (st != RecvStatus::kFrame) continue;
        if (f.type != MsgType::kHello) {
          if (f.flags & kIgnorable) continue;
          throw FleetError("worker " + std::to_string(w) +
                           " spoke before Hello");
        }
        WireReader r(f.body);
        const Hello hello = Hello::decode(r);
        r.expect_end();
        const std::string why = validate_hello(hello);
        if (!why.empty()) {
          slot.proc->channel().send(MsgType::kReject,
                                    [&](WireWriter& w2) { w2.str(why); });
          mark_dead(w);
          throw FleetError("worker " + std::to_string(w) +
                           " handshake rejected: " + why);
        }
        slot.proc->channel().send(MsgType::kHelloAck, [](WireWriter&) {});
        slot.handshaken = true;
        slot.pid = hello.pid;
        slot.last_frame_ns = monotonic_ns();
        --pending;
      }
    }
  }

  // ----------------------------------------------------------- scenario
  // Every worker decodes the compiled scenario before any shard moves. One
  // rejection fails the run here, with nothing assigned.
  {
    for (WorkerSlot& slot : workers) {
      slot.proc->channel().send(
          MsgType::kScenario, [&](WireWriter& w) { w.bytes(opt.scenario); });
    }
    const std::int64_t deadline = monotonic_ns() + kHandshakeDeadlineNs;
    std::size_t pending = opt.workers;
    std::vector<bool> acked(opt.workers, false);
    while (pending > 0) {
      if (monotonic_ns() > deadline) {
        throw FleetError("worker scenario acknowledgement timed out");
      }
      for (std::size_t w = 0; w < opt.workers; ++w) {
        if (acked[w]) continue;
        Frame f;
        const RecvStatus st = workers[w].proc->channel().recv(f, kPollMs);
        if (st == RecvStatus::kEof) {
          throw FleetError("worker " + std::to_string(w) +
                           " died before acknowledging the scenario");
        }
        if (st != RecvStatus::kFrame) continue;
        if (f.type != MsgType::kScenarioAck) {
          if (f.flags & kIgnorable || f.type == MsgType::kHeartbeat) continue;
          throw FleetError("worker " + std::to_string(w) +
                           " answered the scenario with frame type " +
                           std::to_string(static_cast<int>(f.type)));
        }
        WireReader r(f.body);
        const bool ok = r.u8() != 0;
        const std::string why = r.str();
        r.expect_end();
        if (!ok) {
          throw FleetError("worker " + std::to_string(w) +
                           " rejected the scenario blob: " + why);
        }
        acked[w] = true;
        workers[w].last_frame_ns = monotonic_ns();
        --pending;
      }
    }
  }

  // ------------------------------------------------------------- assign
  std::vector<ShardState> shards(opt.shards);
  for (std::size_t i = 0; i < opt.shards; ++i) {
    ShardState& s = shards[i];
    s.spec.shard_id = i;
    s.spec.seed = sim::shard_seed(opt.seed, i);
    s.spec.cadence_ns = opt.cadence_ns;
    s.spec.telemetry = opt.telemetry;
    s.owner = i % opt.workers;
    workers[s.owner].proc->channel().send(
        MsgType::kAssign, [&](WireWriter& w) { s.spec.encode(w); });
  }
  for (std::size_t w = 0; w < opt.workers; ++w) {
    workers[w].proc->channel().send(MsgType::kRun, [](WireWriter&) {});
  }

  // ---------------------------------------------------------- main loop
  std::size_t done_count = 0;
  std::size_t pending_recoveries = 0;
  std::int64_t death_detected_ns = 0;
  std::vector<MigrationPlan> migration_plans = opt.migrations;

  const auto pick_target = [&](std::size_t not_this) -> std::size_t {
    for (std::size_t step = 1; step <= opt.workers; ++step) {
      const std::size_t cand = (not_this + step) % opt.workers;
      if (workers[cand].alive && workers[cand].handshaken) return cand;
    }
    throw FleetError("no live worker available as a migration/recovery "
                     "target");
  };

  const auto send_restore = [&](ShardState& s, std::size_t target) {
    workers[target].proc->channel().send(MsgType::kRestore, [&](WireWriter& w) {
      s.spec.encode(w);
      w.i64(0);  // gap: resume exactly at the capture instant
      w.u8(s.has_blob ? 1 : 0);
      w.bytes(s.blob);
    });
    s.owner = target;
  };

  const auto handle_death = [&](std::size_t w, const std::string& how) {
    WorkerSlot& slot = workers[w];
    if (!slot.alive) return;
    mark_dead(w);
    c_deaths.add();
    ++report.worker_deaths;
    death_detected_ns = monotonic_ns();
    file_issue("fleet worker process " + std::to_string(slot.pid) + " (" +
                   std::to_string(w) + ") presumed dead: " + how +
                   "; restoring its shards from the last streamed "
                   "checkpoint on a surviving worker",
               0.9);
    for (ShardState& s : shards) {
      if (s.done) continue;
      const bool owned = s.owner == w;
      const bool inbound = s.migrating && s.migrate_target == w;
      if (!owned && !inbound) continue;
      s.migrating = false;  // any in-flight migration is void; recover
      s.recovering = true;
      ++pending_recoveries;
      send_restore(s, pick_target(w));
    }
  };

  const auto maybe_trigger_kill = [&](std::size_t w) {
    if (!opt.kill || workers[w].kill_sent) return;
    const KillPlan& plan = *opt.kill;
    if (plan.worker != w || workers[w].ckpts < plan.after_checkpoints) return;
    workers[w].kill_sent = true;
    workers[w].proc->channel().send(MsgType::kKill, [&](WireWriter& wr) {
      wr.u8(static_cast<std::uint8_t>(plan.mode));
    });
  };

  const auto maybe_trigger_migration = [&](ShardState& s) {
    if (s.migrating || s.done) return;
    for (auto it = migration_plans.begin(); it != migration_plans.end(); ++it) {
      if (it->shard_id != s.spec.shard_id || s.ckpts < it->after_checkpoints) {
        continue;
      }
      s.migrating = true;
      s.migrate_target = pick_target(s.owner);
      s.migrate_t0_ns = monotonic_ns();
      workers[s.owner].proc->channel().send(
          MsgType::kMigrateOut,
          [&](WireWriter& w) { w.u64(s.spec.shard_id); });
      migration_plans.erase(it);
      return;
    }
  };

  // A shard id a worker names is outside bytes: one past the fleet fails
  // the run before any state changes.
  const auto worker_shard = [&](std::size_t w, std::uint64_t shard_id,
                                const char* frame) -> ShardState& {
    if (shard_id >= shards.size()) {
      throw FleetError("worker " + std::to_string(w) + " sent " + frame +
                       " for shard " + std::to_string(shard_id) +
                       " of a " + std::to_string(shards.size()) +
                       "-shard fleet");
    }
    return shards[shard_id];
  };

  const auto dispatch = [&](std::size_t w, const Frame& f) {
    WorkerSlot& slot = workers[w];
    switch (f.type) {
      case MsgType::kCheckpoint: {
        WireReader r(f.body);
        const std::uint64_t shard_id = r.u64();
        const std::int64_t captured = r.i64();
        (void)r.u64();  // cadence index (informational)
        const std::span<const std::uint8_t> blob = r.bytes();
        r.expect_end();
        ShardState& s = worker_shard(w, shard_id, "kCheckpoint");
        s.blob.assign(blob.begin(), blob.end());
        s.has_blob = true;
        s.captured_ns = captured;
        ++s.ckpts;
        ++slot.ckpts;
        c_ckpts.add();
        ++report.checkpoints_streamed;
        maybe_trigger_migration(s);
        maybe_trigger_kill(w);
        // Ack last: any kMigrateOut/kKill injected above reaches the worker
        // before it resumes, so plans keyed on checkpoint counts are
        // deterministic.
        if (slot.alive) {
          slot.proc->channel().send(MsgType::kCheckpointAck,
                                    [&](WireWriter& wr) { wr.u64(shard_id); });
        }
        break;
      }
      case MsgType::kMigrated: {
        WireReader r(f.body);
        const std::uint64_t shard_id = r.u64();
        const std::int64_t captured = r.i64();
        const bool ok = r.u8() != 0;
        const std::span<const std::uint8_t> blob = r.bytes();
        r.expect_end();
        ShardState& s = worker_shard(w, shard_id, "kMigrated");
        if (!ok || !s.migrating) {
          s.migrating = false;
          break;
        }
        s.blob.assign(blob.begin(), blob.end());
        s.has_blob = true;
        s.captured_ns = captured;
        send_restore(s, s.migrate_target);
        break;
      }
      case MsgType::kRestored: {
        WireReader r(f.body);
        const std::uint64_t shard_id = r.u64();
        (void)r.u8();  // fresh flag
        r.expect_end();
        ShardState& s = worker_shard(w, shard_id, "kRestored");
        if (s.migrating) {
          s.migrating = false;
          const std::uint64_t latency =
              static_cast<std::uint64_t>(monotonic_ns() - s.migrate_t0_ns);
          h_migration.record(latency);
          c_migrations.add();
          ++report.migrations;
        } else if (s.recovering) {
          s.recovering = false;
          --pending_recoveries;
          if (pending_recoveries == 0 && death_detected_ns != 0) {
            report.recovery_ms =
                static_cast<double>(monotonic_ns() - death_detected_ns) / 1e6;
          }
        }
        break;
      }
      case MsgType::kResult: {
        WireReader r(f.body);
        const std::uint64_t shard_id = r.u64();
        const std::uint64_t fp = r.u64();
        const std::uint64_t events = r.u64();
        const std::int64_t result_now = r.i64();
        const bool has_metrics = r.u8() != 0;
        const std::span<const std::uint8_t> metrics = r.bytes();
        r.expect_end();
        ShardState& s = worker_shard(w, shard_id, "kResult");
        s.fp = fp;
        s.events = events;
        s.result_now_ns = result_now;
        if (has_metrics) {
          s.metrics_payload.assign(metrics.begin(), metrics.end());
        }
        if (!s.done) {
          s.done = true;
          ++done_count;
        }
        break;
      }
      case MsgType::kHeartbeat:
        break;  // the frame's arrival is the signal; body is advisory
      case MsgType::kBye:
        slot.bye = true;
        break;
      default:
        if (!(f.flags & kIgnorable)) {
          throw FleetError("coordinator received unknown frame type " +
                           std::to_string(static_cast<int>(f.type)));
        }
    }
  };

  const auto drain_worker = [&](std::size_t w) {
    WorkerSlot& slot = workers[w];
    Frame f;
    while (slot.alive) {
      const RecvStatus st = slot.proc->channel().recv(f, 0);
      if (st == RecvStatus::kTimeout) return;
      if (st == RecvStatus::kEof) {
        handle_death(w, "control channel closed (EOF)");
        return;
      }
      slot.last_frame_ns = monotonic_ns();
      dispatch(w, f);
    }
  };

  const std::int64_t hb_timeout_ns =
      static_cast<std::int64_t>(opt.heartbeat_timeout_ms) * 1'000'000;

  while (done_count < opt.shards || pending_recoveries > 0) {
    if (alive_count == 0) {
      throw FleetError("every worker died before the fleet completed");
    }
    // One poll across all live channels, then per-channel drains.
    std::vector<struct pollfd> pfds;
    std::vector<std::size_t> pfd_worker;
    for (std::size_t w = 0; w < opt.workers; ++w) {
      if (!workers[w].alive) continue;
      struct pollfd p{};
      p.fd = workers[w].proc->channel().fd();
      p.events = POLLIN;
      pfds.push_back(p);
      pfd_worker.push_back(w);
    }
    int pr;
    do {
      pr = ::poll(pfds.data(), pfds.size(), kPollMs);
    } while (pr < 0 && errno == EINTR);
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        drain_worker(pfd_worker[i]);
      }
    }
    // Heartbeat watchdog: silence past the deadline is a presumed death.
    // This is the only path that catches a *hung* worker — the fd stays
    // open, so EOF never comes.
    const std::int64_t now = monotonic_ns();
    for (std::size_t w = 0; w < opt.workers; ++w) {
      WorkerSlot& slot = workers[w];
      if (!slot.alive || now - slot.last_frame_ns < hb_timeout_ns) continue;
      slot.watchdog_fired = true;
      c_watchdog.add();
      file_issue("fleet heartbeat watchdog: worker process " +
                     std::to_string(slot.pid) + " (" + std::to_string(w) +
                     ") silent for " +
                     std::to_string((now - slot.last_frame_ns) / 1'000'000) +
                     " ms on the control plane",
                 0.8);
      handle_death(w, "heartbeat timeout");
    }
  }

  // ----------------------------------------------------------- shutdown
  for (std::size_t w = 0; w < opt.workers; ++w) {
    if (workers[w].alive) {
      workers[w].proc->channel().send(MsgType::kShutdown, [](WireWriter&) {});
    }
  }
  const std::int64_t bye_deadline = monotonic_ns() + kShutdownDeadlineNs;
  for (std::size_t w = 0; w < opt.workers; ++w) {
    WorkerSlot& slot = workers[w];
    while (slot.alive && !slot.bye && monotonic_ns() < bye_deadline) {
      Frame f;
      const RecvStatus st = slot.proc->channel().recv(f, kPollMs);
      if (st == RecvStatus::kEof) break;
      if (st == RecvStatus::kFrame) dispatch(w, f);
    }
    if (slot.alive) {
      slot.alive = false;
      --alive_count;
      slot.proc->wait();
    }
  }

  // ----------------------------------------------------------- finalize
  std::uint64_t bytes = 0, frames = 0;
  for (WorkerSlot& slot : workers) {
    const Channel& chan = slot.proc->channel();
    bytes += chan.bytes_sent() + chan.bytes_received();
    frames += chan.frames_sent() + chan.frames_received();
  }
  c_bytes.add(bytes);
  report.control_bytes = bytes;
  report.control_frames = frames;

  report.shard_fps.reserve(opt.shards);
  for (ShardState& s : shards) {
    report.shard_fps.push_back(s.fp);
    report.total_events += s.events;
    if (!s.done) ++report.lost_shards;
    if (s.done && !s.metrics_payload.empty()) {
      try {
        snap::SectionReader r(s.metrics_payload,
                              sim::Time::ns(s.result_now_ns));
        obs::MetricsRegistry shard_metrics;
        shard_metrics.restore(r);
        merged_.merge(shard_metrics);  // a name under two kinds throws
      } catch (const std::exception& e) {
        throw FleetError("shard " + std::to_string(&s - shards.data()) +
                         " metrics: " + e.what());
      }
    }
  }
  report.shards_completed = done_count;
  report.fleet_fp = sim::fleet_fingerprint(report.shard_fps);
  return report;
}

}  // namespace aroma::fleet

#include "fleet/worker.hpp"

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fleet/micro.hpp"
#include "fleet/wire.hpp"
#include "obs/telemetry.hpp"
#include "scn/blob.hpp"
#include "scn/runtime.hpp"
#include "snap/checkpoint.hpp"
#include "snap/snapshot.hpp"

namespace aroma::fleet {

namespace {

/// One shard this worker owns. Exactly one of room/micro is set.
struct Owned {
  ShardSpec spec;
  std::unique_ptr<scn::ScenarioInstance> room;
  std::unique_ptr<snap::CheckpointManager> mgr;
  std::unique_ptr<MicroShard> micro;
  std::uint64_t next_ckpt = 1;  // index of the next cadence point
  bool done = false;

  std::uint64_t events() const {
    return micro ? micro->events() : room->events();
  }
  sim::Time now() const {
    return micro ? micro->now() : room->world().now();
  }
  sim::Time horizon() const {
    return micro ? micro->horizon() : room->horizon_time();
  }
  /// Cadence points count from the meeting start.
  sim::Time setup() const {
    return micro ? MicroShard::setup_time() : room->meeting_time();
  }
};

Owned make_shard(const ShardSpec& spec,
                 const std::optional<scn::Scenario>& scenario) {
  Owned o;
  o.spec = spec;
  if (spec.kind == ShardKind::kMicro) {
    o.micro = std::make_unique<MicroShard>(
        static_cast<std::size_t>(spec.shard_id), spec.seed, spec.micro_rooms);
  } else {
    if (!scenario) {
      throw FleetError("room shard assigned before a scenario was shipped");
    }
    scn::RunOptions ropts;
    ropts.telemetry = spec.telemetry;
    o.room = std::make_unique<scn::ScenarioInstance>(
        *scenario, static_cast<std::size_t>(spec.shard_id), spec.seed, ropts);
    o.room->warmup();
    snap::CheckpointManager::Options copts;
    copts.full_every = 1;  // migration and recovery need restorable blobs
    o.mgr = std::make_unique<snap::CheckpointManager>(o.room->world(),
                                                      o.room->registry(),
                                                      copts);
  }
  return o;
}

/// The next cadence point: setup + k * cadence (cadence_ns == 0: never).
sim::Time next_cadence_point(const Owned& o) {
  if (o.spec.cadence_ns <= 0) return sim::Time::ns(INT64_MAX);
  return sim::Time::ns(o.setup().count() +
                       o.spec.cadence_ns *
                           static_cast<std::int64_t>(o.next_ckpt));
}

class Worker {
 public:
  Worker(int fd, const WorkerOptions& options)
      : chan_(fd), options_(options) {}

  int run() {
    if (!handshake()) return rejected_ ? 2 : 1;
    last_hb_ns_ = monotonic_ns();
    while (!shutdown_) {
      if (!drain_messages()) return rejected_ ? 2 : 1;
      maybe_heartbeat();
      if (running_) run_slice();
    }
    chan_.send(MsgType::kBye, [](WireWriter&) {});
    return 0;
  }

 private:
  bool handshake() {
    const bool sent = chan_.send(MsgType::kHello, [](WireWriter& w) {
      Hello h;
      h.pid = static_cast<std::uint32_t>(::getpid());
      h.encode(w);
    });
    if (!sent) return false;
    Frame f;
    while (true) {
      if (chan_.recv(f, -1) == RecvStatus::kEof) return false;
      if (f.type == MsgType::kHelloAck) return true;
      if (f.type == MsgType::kReject) {
        rejected_ = true;
        return false;
      }
      if (!(f.flags & kIgnorable)) return false;
    }
  }

  /// Drains every queued control frame. Blocks for one heartbeat interval
  /// when there is nothing to run; polls otherwise. False: channel torn.
  bool drain_messages() {
    bool work_pending = running_ && !waiting_ack_;
    if (work_pending) {
      work_pending = false;
      for (const Owned& o : shards_) work_pending |= !o.done;
    }
    int timeout = work_pending ? 0 : options_.heartbeat_interval_ms;
    Frame f;
    while (true) {
      const RecvStatus st = chan_.recv(f, timeout);
      if (st == RecvStatus::kEof) return false;
      if (st == RecvStatus::kTimeout) return true;
      if (!dispatch(f)) return false;
      if (shutdown_) return true;
      timeout = 0;  // keep draining whatever is already queued
    }
  }

  bool dispatch(const Frame& f) {
    switch (f.type) {
      case MsgType::kScenario:
        return handle_scenario(f);
      case MsgType::kAssign: {
        WireReader r(f.body);
        const ShardSpec spec = ShardSpec::decode(r);
        r.expect_end();
        shards_.push_back(make_shard(spec, scenario_));
        return true;
      }
      case MsgType::kRestore:
        return handle_restore(f);
      case MsgType::kRun:
        running_ = true;
        return true;
      case MsgType::kCheckpointAck:
        waiting_ack_ = false;
        return true;
      case MsgType::kMigrateOut:
        return handle_migrate_out(f);
      case MsgType::kShutdown:
        shutdown_ = true;
        return true;
      case MsgType::kKill: {
        WireReader r(f.body);
        const KillMode mode = static_cast<KillMode>(r.u8());
        if (mode == KillMode::kExit) ::_exit(3);
        // Hang: stop participating in the protocol but keep the fd open —
        // the coordinator must detect this through heartbeat silence, not
        // EOF.
        while (true) ::pause();
      }
      default:
        // Forward compatibility: unknown-but-ignorable frames are skipped;
        // an unknown required frame is a protocol error.
        return (f.flags & kIgnorable) != 0;
    }
  }

  /// Decodes the fleet's compiled scenario. A blob scn::decode rejects is
  /// answered with the decoder's reason and ends the worker cleanly: the
  /// coordinator fails the run before assigning anything.
  bool handle_scenario(const Frame& f) {
    WireReader r(f.body);
    const std::span<const std::uint8_t> blob = r.bytes();
    r.expect_end();
    std::string why;
    try {
      scenario_.emplace(scn::decode(blob));
    } catch (const scn::ScnError& e) {
      why = e.what();
    }
    const bool sent = chan_.send(MsgType::kScenarioAck, [&](WireWriter& w) {
      w.u8(why.empty() ? 1 : 0);
      w.str(why);
    });
    if (!why.empty()) {
      rejected_ = true;
      return false;
    }
    return sent;
  }

  bool handle_restore(const Frame& f) {
    WireReader r(f.body);
    const ShardSpec spec = ShardSpec::decode(r);
    const std::int64_t gap_ns = r.i64();
    const bool has_blob = r.u8() != 0;
    const std::span<const std::uint8_t> blob = r.bytes();
    r.expect_end();
    Owned o = make_shard(spec, scenario_);
    if (has_blob) {
      const sim::Time gap = sim::Time::ns(gap_ns);
      if (o.micro) {
        o.micro->restore(blob, gap);
      } else {
        o.room->restore(blob, gap);
      }
      // Resume the cadence after the capture instant, not from scratch —
      // the checkpoint stream must look the same as if the shard had never
      // moved.
      while (next_cadence_point(o) <= o.now()) ++o.next_ckpt;
    }
    const std::uint64_t shard_id = spec.shard_id;
    shards_.push_back(std::move(o));
    return chan_.send(MsgType::kRestored, [&](WireWriter& w) {
      w.u64(shard_id);
      w.u8(has_blob ? 0 : 1);  // 1: rebuilt fresh (no checkpoint existed)
    });
  }

  bool handle_migrate_out(const Frame& f) {
    WireReader r(f.body);
    const std::uint64_t shard_id = r.u64();
    r.expect_end();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Owned& o = shards_[i];
      if (o.spec.shard_id != shard_id || o.done) continue;
      std::int64_t captured_ns;
      if (o.micro) {
        o.micro->checkpoint_into(scratch_);
        captured_ns = o.micro->now().count();
      } else {
        const snap::Checkpoint ckpt = o.mgr->take_full();
        scratch_.blob = ckpt.blob;  // copy; room blobs are not gated
        captured_ns = ckpt.captured_at.count();
      }
      const bool ok = chan_.send(MsgType::kMigrated, [&](WireWriter& w) {
        w.u64(shard_id);
        w.i64(captured_ns);
        w.u8(1);
        w.bytes(scratch_.blob);
      });
      shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(i));
      return ok;
    }
    // Unknown or already-finished shard: answer with an empty migration so
    // the coordinator never blocks on a blob that cannot come.
    return chan_.send(MsgType::kMigrated, [&](WireWriter& w) {
      w.u64(shard_id);
      w.i64(0);
      w.u8(0);
      w.bytes({});
    });
  }

  /// Advances one shard by one slice: to its next cadence point (then
  /// streams the checkpoint) or to completion (then reports the result).
  void run_slice() {
    if (waiting_ack_) return;  // one checkpoint in flight per worker
    for (Owned& o : shards_) {
      if (o.done) continue;
      const sim::Time cp = next_cadence_point(o);
      if (cp < o.horizon()) {
        advance_and_checkpoint(o, cp);
      } else {
        finish_shard(o);
      }
      return;  // one slice per drain cycle keeps command latency bounded
    }
  }

  void advance_and_checkpoint(Owned& o, sim::Time cp) {
    std::int64_t captured_ns;
    if (o.micro) {
      o.micro->run_until(cp);
      o.micro->checkpoint_into(scratch_);
      captured_ns = o.micro->now().count();
    } else {
      o.room->world().sim().run_until(cp);
      const snap::Checkpoint ckpt = o.mgr->take_full();
      scratch_.blob = ckpt.blob;
      captured_ns = ckpt.captured_at.count();
    }
    chan_.send(MsgType::kCheckpoint, [&](WireWriter& w) {
      w.u64(o.spec.shard_id);
      w.i64(captured_ns);
      w.u64(o.next_ckpt);
      w.bytes(scratch_.blob);
    });
    ++o.next_ckpt;
    waiting_ack_ = true;
  }

  void finish_shard(Owned& o) {
    std::uint64_t fp;
    if (o.micro) {
      o.micro->finish();
      fp = o.micro->fingerprint();
    } else {
      o.room->finish();
      fp = o.room->fingerprint();
    }
    const std::uint64_t events = o.events();
    const sim::Time now = o.now();
    o.done = true;
    chan_.send(MsgType::kResult, [&](WireWriter& w) {
      w.u64(o.spec.shard_id);
      w.u64(fp);
      w.u64(events);
      w.i64(now.count());
      const obs::Telemetry* tel = o.room ? o.room->telemetry() : nullptr;
      if (tel != nullptr) {
        w.u8(1);
        snap::SectionWriter mw(now);
        tel->metrics().save(mw);
        w.bytes(mw.payload());
      } else {
        w.u8(0);
        w.bytes({});
      }
    });
  }

  void maybe_heartbeat() {
    const std::int64_t now = monotonic_ns();
    if (now - last_hb_ns_ <
        static_cast<std::int64_t>(options_.heartbeat_interval_ms) * 1'000'000) {
      return;
    }
    last_hb_ns_ = now;
    std::uint64_t events = 0;
    std::uint32_t done = 0;
    for (const Owned& o : shards_) {
      events += o.events();
      done += o.done ? 1 : 0;
    }
    chan_.send(MsgType::kHeartbeat, [&](WireWriter& w) {
      w.u64(events);
      w.u32(static_cast<std::uint32_t>(shards_.size()));
      w.u32(done);
    });
  }

  Channel chan_;
  WorkerOptions options_;
  std::optional<scn::Scenario> scenario_;
  std::vector<Owned> shards_;
  snap::SaveScratch scratch_;
  bool running_ = false;
  bool waiting_ack_ = false;
  bool shutdown_ = false;
  bool rejected_ = false;
  std::int64_t last_hb_ns_ = 0;
};

}  // namespace

int worker_main(int fd, const WorkerOptions& options) {
  try {
    return Worker(fd, options).run();
  } catch (const std::exception&) {
    // A worker must never take the whole fleet down with an unwind through
    // main; the coordinator sees EOF and runs recovery.
    return 1;
  }
}

}  // namespace aroma::fleet

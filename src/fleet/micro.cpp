#include "fleet/micro.hpp"

#include "sim/random.hpp"

namespace aroma::fleet {

namespace {
// Beacon periods span 200–800 ms, phases span one period: ~8 events per
// room over a 55–95 s horizon's final 50 s of activity.
constexpr std::int64_t kMinPeriodNs = 200'000'000;
constexpr std::int64_t kPeriodSpanNs = 600'000'000;
const std::int64_t kStartNs = MicroShard::setup_time().count();
}  // namespace

MicroShard::MicroShard(std::size_t shard_id, std::uint64_t seed,
                       std::uint32_t rooms)
    : shard_id_(shard_id),
      seed_(seed),
      horizon_(sim::Time::sec(55.0 + 10.0 * static_cast<double>(shard_id % 5))) {
  rooms_.resize(rooms);
  for (std::uint32_t r = 0; r < rooms; ++r) {
    Room& room = rooms_[r];
    const std::uint64_t h = sim::mix_hash(seed_, r);
    room.period_ns =
        kMinPeriodNs + static_cast<std::int64_t>(h % kPeriodSpanNs);
    room.next_ns = kStartNs + static_cast<std::int64_t>(
                                  sim::mix_hash(h, 1) %
                                  static_cast<std::uint64_t>(room.period_ns));
    room.acc = sim::mix_hash(h, 2);
  }

  registry_.add(
      kTagMicro, "micro",
      [this](snap::SectionWriter& w) {
        // Absolute capture clock first, so restore() can learn the capture
        // instant before constructing the rebased readers (same layout rule
        // as the scenario runtime's SIM! section).
        w.duration(now_);
        w.u64(events_);
        w.u64(rooms_.size());
        for (const Room& room : rooms_) {
          w.u64(room.acc);
          w.time_delta(sim::Time::ns(room.next_ns));
          w.duration(sim::Time::ns(room.period_ns));
          w.u32(room.beacons);
        }
      },
      [this](snap::SectionReader& r, const snap::RestoreCtx& ctx) {
        (void)r.duration();  // capture clock; already folded into ctx.now
        events_ = r.u64();
        const std::uint64_t n = r.u64();
        if (n != rooms_.size()) {
          throw snap::SnapError("micro shard room count mismatch");
        }
        for (Room& room : rooms_) {
          room.acc = r.u64();
          room.next_ns = r.time_delta().count();
          room.period_ns = r.duration().count();
          room.beacons = r.u32();
        }
        now_ = ctx.now;
      });
}

void MicroShard::run_until(sim::Time t) {
  if (t > horizon_) t = horizon_;
  if (t <= now_) return;
  const std::int64_t until = t.count();
  for (Room& room : rooms_) {
    while (room.next_ns <= until) {
      room.acc = sim::mix_hash(room.acc,
                               static_cast<std::uint64_t>(room.next_ns));
      ++room.beacons;
      ++events_;
      room.next_ns += room.period_ns;
    }
  }
  now_ = t;
}

void MicroShard::restore(std::span<const std::uint8_t> blob, sim::Time gap) {
  const snap::SnapReader reader(blob);
  const snap::Section* micro = reader.find(kTagMicro);
  if (micro == nullptr) {
    throw snap::SnapError("blob has no MICR section");
  }
  // Peek the capture instant (first field) to compute the resume clock.
  snap::SectionReader peek(micro->payload, sim::Time::zero());
  const sim::Time captured = peek.duration();
  snap::RestoreCtx ctx;
  ctx.gap = gap;
  ctx.now = captured + gap;
  registry_.restore_all(reader, ctx);
}

std::uint64_t MicroShard::fingerprint() const {
  std::uint64_t fp = sim::mix_hash(seed_, rooms_.size());
  for (const Room& room : rooms_) {
    fp = sim::mix_hash(fp, room.acc);
    fp = sim::mix_hash(fp, room.beacons);
  }
  return sim::mix_hash(fp, events_);
}

}  // namespace aroma::fleet

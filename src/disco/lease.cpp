#include "disco/lease.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "snap/format.hpp"

namespace aroma::disco {

LeaseTable::LeaseTable(sim::World& world) : world_(world) {
  const auto layer = lpc::Layer::kAbstract;
  m_grants_ = obs::counter(world_, "disco.lease.grants", layer);
  m_renewals_ = obs::counter(world_, "disco.lease.renewals", layer);
  m_cancellations_ = obs::counter(world_, "disco.lease.cancellations", layer);
  m_expirations_ = obs::counter(world_, "disco.lease.expirations", layer);
}

void LeaseTable::grant(std::uint64_t key, sim::Time duration,
                       std::function<void()> on_expire) {
  Lease& l = leases_[key];
  l.expiry = world_.now() + duration;
  l.on_expire = std::move(on_expire);
  if (m_grants_) m_grants_->add();
  arm_check(key, l);
}

bool LeaseTable::renew(std::uint64_t key, sim::Time duration) {
  auto it = leases_.find(key);
  if (it == leases_.end()) return false;
  it->second.expiry = world_.now() + duration;
  if (m_renewals_) m_renewals_->add();
  arm_check(key, it->second);
  return true;
}

void LeaseTable::cancel(std::uint64_t key) {
  auto it = leases_.find(key);
  if (it == leases_.end()) return;
  world_.sim().cancel(it->second.check);
  leases_.erase(it);
  if (m_cancellations_) m_cancellations_->add();
}

bool LeaseTable::active(std::uint64_t key) const {
  auto it = leases_.find(key);
  return it != leases_.end() && it->second.expiry > world_.now();
}

sim::Time LeaseTable::expiry(std::uint64_t key) const {
  auto it = leases_.find(key);
  return it != leases_.end() ? it->second.expiry : sim::Time::zero();
}

void LeaseTable::arm_check(std::uint64_t key, Lease& lease) {
  world_.sim().cancel(lease.check);
  lease.check = world_.sim().schedule_at(
      lease.expiry, sim::EventCategory::kLease, make_check(key));
}

std::function<void()> LeaseTable::make_check(std::uint64_t key) {
  return [this, key, guard = std::weak_ptr<char>(alive_)] {
    if (guard.expired()) return;
    auto it = leases_.find(key);
    if (it == leases_.end()) return;  // a restore dropped the table under it
    auto cb = std::move(it->second.on_expire);
    leases_.erase(it);
    ++expirations_;
    if (m_expirations_) m_expirations_->add();
    // The expiry parents to whatever granted/last renewed the lease (its
    // context was stamped on this check event at schedule time), and in
    // turn becomes the cause of every notification the callback sends.
    obs::ScopedSpan span(world_, "disco.lease.expire", lpc::Layer::kAbstract,
                         sim::TraceLevel::kWarn);
    if (cb) cb();
  };
}

void LeaseTable::save(snap::SectionWriter& w) const {
  w.u64(expirations_);

  std::vector<std::pair<std::uint64_t, const Lease*>>& sorted = save_leases_;
  sorted.clear();
  for (const auto& [key, lease] : leases_) sorted.emplace_back(key, &lease);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(sorted.size());
  for (const auto& [key, lease] : sorted) {
    // The check's kernel identity, so restore re-inserts it verbatim; it
    // fires at the expiry, a duration from now that rebases under a gap.
    const auto info = world_.sim().pending_event_info(lease->check);
    if (!info.valid) {
      throw snap::SnapError("lease save: lease " + std::to_string(key) +
                            " has no pending expiry check");
    }
    w.u64(key);
    w.time_delta(lease->expiry);
    w.u64(info.seq);
    w.u64(info.id);
  }
}

void LeaseTable::restore(snap::SectionReader& r,
                         const ExpireFactory& factory) {
  // Dropped, not cancelled: their events went with clear_pending.
  leases_.clear();
  expirations_ = r.u64();
  const std::uint64_t n_leases = r.u64();
  for (std::uint64_t i = 0; i < n_leases; ++i) {
    const std::uint64_t key = r.u64();
    Lease& l = leases_[key];
    l.expiry = r.time_delta();
    const std::uint64_t seq = r.u64();
    const std::uint64_t id = r.u64();
    l.on_expire = factory ? factory(key) : std::function<void()>();
    l.check = world_.sim().restore_event(l.expiry, seq, id,
                                         sim::EventCategory::kLease,
                                         make_check(key));
  }
}

}  // namespace aroma::disco

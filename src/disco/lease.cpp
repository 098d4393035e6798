#include "disco/lease.hpp"

#include <algorithm>

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
  l.gen = next_gen_++;
  l.on_expire = std::move(on_expire);
  if (m_grants_) m_grants_->add();
  schedule_check(key, l.gen, l.expiry);
}

bool LeaseTable::renew(std::uint64_t key, sim::Time duration) {
  auto it = leases_.find(key);
  if (it == leases_.end()) return false;
  it->second.expiry = world_.now() + duration;
  it->second.gen = next_gen_++;
  if (m_renewals_) m_renewals_->add();
  schedule_check(key, it->second.gen, it->second.expiry);
  return true;
}

void LeaseTable::cancel(std::uint64_t key) {
  if (leases_.erase(key) != 0 && m_cancellations_ != nullptr) {
    m_cancellations_->add();
  }
}

bool LeaseTable::active(std::uint64_t key) const {
  auto it = leases_.find(key);
  return it != leases_.end() && it->second.expiry > world_.now();
}

sim::Time LeaseTable::expiry(std::uint64_t key) const {
  auto it = leases_.find(key);
  return it != leases_.end() ? it->second.expiry : sim::Time::zero();
}

void LeaseTable::schedule_check(std::uint64_t key, std::uint64_t gen,
                                sim::Time when) {
  const sim::EventHandle h = world_.sim().schedule_at(
      when, sim::EventCategory::kLease, make_check(key, gen));
  checks_[key].push_back(PendingCheck{gen, h});
}

std::function<void()> LeaseTable::make_check(std::uint64_t key,
                                             std::uint64_t gen) {
  return [this, key, gen, guard = std::weak_ptr<char>(alive_)] {
    if (guard.expired()) return;
    if (const auto cit = checks_.find(key); cit != checks_.end()) {
      std::vector<PendingCheck>& list = cit->second;
      prune_visits_ += list.size();
      list.erase(std::remove_if(
                     list.begin(), list.end(),
                     [&](const PendingCheck& c) { return c.gen == gen; }),
                 list.end());
      if (list.empty()) checks_.erase(cit);
    }
    auto it = leases_.find(key);
    if (it == leases_.end() || it->second.gen != gen) return;  // renewed
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
  w.u64(next_gen_);
  w.u64(expirations_);
  w.u64(prune_visits_);

  std::vector<std::pair<std::uint64_t, const Lease*>>& sorted = save_leases_;
  sorted.clear();
  for (const auto& [key, lease] : leases_) sorted.emplace_back(key, &lease);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(sorted.size());
  for (const auto& [key, lease] : sorted) {
    w.u64(key);
    w.time_delta(lease->expiry);  // duration-from-now: rebases under a gap
    w.u64(lease->gen);
  }

  // Every live check event, stale generations included, with its kernel
  // identity so restore can re-insert it verbatim.
  std::vector<CheckRec>& recs = save_checks_;
  recs.clear();
  for (const auto& [key, list] : checks_) {
    for (const PendingCheck& c : list) {
      const auto info = world_.sim().pending_event_info(c.event);
      if (!info.valid) continue;  // fired/cancelled; entry not yet pruned
      recs.push_back(CheckRec{key, c.gen, info.seq, info.id, info.when});
    }
  }
  std::sort(recs.begin(), recs.end(),
            [](const CheckRec& a, const CheckRec& b) { return a.seq < b.seq; });
  w.u64(recs.size());
  for (const CheckRec& rec : recs) {
    w.u64(rec.key);
    w.u64(rec.gen);
    w.time_delta(rec.when);
    w.u64(rec.seq);
    w.u64(rec.id);
  }
}

void LeaseTable::restore(snap::SectionReader& r,
                         const ExpireFactory& factory) {
  leases_.clear();
  checks_.clear();
  next_gen_ = r.u64();
  expirations_ = r.u64();
  prune_visits_ = r.u64();
  const std::uint64_t n_leases = r.u64();
  for (std::uint64_t i = 0; i < n_leases; ++i) {
    const std::uint64_t key = r.u64();
    Lease& l = leases_[key];
    l.expiry = r.time_delta();
    l.gen = r.u64();
    l.on_expire = factory ? factory(key) : std::function<void()>();
  }
  const std::uint64_t n_checks = r.u64();
  for (std::uint64_t i = 0; i < n_checks; ++i) {
    const std::uint64_t key = r.u64();
    const std::uint64_t gen = r.u64();
    const sim::Time when = r.time_delta();
    const std::uint64_t seq = r.u64();
    const std::uint64_t id = r.u64();
    const sim::EventHandle h = world_.sim().restore_event(
        when, seq, id, sim::EventCategory::kLease, make_check(key, gen));
    checks_[key].push_back(PendingCheck{gen, h});
  }
}

}  // namespace aroma::disco

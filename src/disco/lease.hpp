// Leases: time-bounded grants that must be renewed to stay alive.
//
// Jini's central liveness mechanism, and the paper's answer to "users who
// forget to relinquish control of the projector": every registration,
// session, and event subscription is lease-backed, so abandoned state
// self-cleans without an administrator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/world.hpp"

namespace aroma::obs {
class Counter;
}  // namespace aroma::obs

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::disco {

class LeaseTable {
 public:
  explicit LeaseTable(sim::World& world);
  LeaseTable(const LeaseTable&) = delete;
  LeaseTable& operator=(const LeaseTable&) = delete;

  /// Grants (or replaces) a lease on `key` expiring after `duration`.
  /// `on_expire` fires exactly once if the lease lapses without renewal.
  void grant(std::uint64_t key, sim::Time duration,
             std::function<void()> on_expire);

  /// Extends an active lease. Returns false for unknown/expired keys.
  bool renew(std::uint64_t key, sim::Time duration);

  /// Cancels without firing the expiry callback.
  void cancel(std::uint64_t key);

  bool active(std::uint64_t key) const;
  sim::Time expiry(std::uint64_t key) const;
  std::size_t size() const { return leases_.size(); }

  std::uint64_t expirations() const { return expirations_; }

  /// Check-list entries examined while pruning fired expiry checks, summed
  /// over the table's lifetime. A fired check prunes only its own key's
  /// entries (the list used to be flat, making every expiry O(live
  /// leases)); the regression test asserts this stays O(1) per expiry.
  std::uint64_t prune_visits() const { return prune_visits_; }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // Expiry deadlines are serialized as durations-from-now, so a restore
  // under a simulated-time gap rebases every lease uniformly: a lease with
  // 12 s left at checkpoint time has 12 s left after restore. Expiry
  // callbacks are code, not data — restore rebuilds each from `factory`.
  // Outstanding check events (including stale-generation ones left behind
  // by renewals) are re-armed verbatim so the restored kernel's event
  // stream is bit-identical to an uninterrupted run.
  using ExpireFactory =
      std::function<std::function<void()>(std::uint64_t key)>;
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r, const ExpireFactory& factory);

 private:
  struct Lease {
    sim::Time expiry;
    std::uint64_t gen = 0;
    std::function<void()> on_expire;
  };
  /// One scheduled-but-unfired expiry check; pruned when it fires.
  struct PendingCheck {
    std::uint64_t gen;
    sim::EventHandle event;
  };
  /// One live check event as save() writes it, ordered by kernel seq.
  struct CheckRec {
    std::uint64_t key, gen, seq, id;
    sim::Time when;
  };
  void schedule_check(std::uint64_t key, std::uint64_t gen, sim::Time when);
  std::function<void()> make_check(std::uint64_t key, std::uint64_t gen);

  sim::World& world_;
  std::unordered_map<std::uint64_t, Lease> leases_;
  // Keyed by lease key so a fired check prunes only its own key's entries
  // (typically one; a renewal chain leaves at most a handful of stale
  // generations) instead of rescanning every live registration's check.
  std::unordered_map<std::uint64_t, std::vector<PendingCheck>> checks_;
  std::uint64_t next_gen_ = 1;
  std::uint64_t expirations_ = 0;
  std::uint64_t prune_visits_ = 0;
  // Telemetry handles; null when the world has no registry attached.
  obs::Counter* m_grants_ = nullptr;
  obs::Counter* m_renewals_ = nullptr;
  obs::Counter* m_cancellations_ = nullptr;
  obs::Counter* m_expirations_ = nullptr;
  // Expiry events may still sit in the simulator when the table's owner is
  // destroyed mid-run; they check this token and become no-ops.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  // save()'s canonical-order buffers, reused so steady-state checkpoints
  // do not allocate.
  mutable std::vector<std::pair<std::uint64_t, const Lease*>> save_leases_;
  mutable std::vector<CheckRec> save_checks_;
};

}  // namespace aroma::disco

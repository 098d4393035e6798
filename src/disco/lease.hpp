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
  /// Each lease holds one pending expiry check; grant and renew cancel the
  /// check they supersede and cancel() cancels it.
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

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // Expiry deadlines are serialized as durations-from-now, so a restore
  // under a simulated-time gap rebases every lease uniformly: a lease with
  // 12 s left at checkpoint time has 12 s left after restore. Expiry
  // callbacks are code, not data — restore rebuilds each from `factory`.
  // Each lease's pending check is saved inline by kernel identity and
  // re-armed verbatim, so the restored kernel's event stream is
  // bit-identical to an uninterrupted run. save() throws snap::SnapError
  // for a lease without a pending check.
  using ExpireFactory =
      std::function<std::function<void()>(std::uint64_t key)>;
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r, const ExpireFactory& factory);

 private:
  struct Lease {
    sim::Time expiry;
    sim::EventHandle check;  // fires at `expiry`
    std::function<void()> on_expire;
  };
  /// Schedules `lease`'s check at its expiry, cancelling the one it
  /// supersedes.
  void arm_check(std::uint64_t key, Lease& lease);
  std::function<void()> make_check(std::uint64_t key);

  sim::World& world_;
  std::unordered_map<std::uint64_t, Lease> leases_;
  std::uint64_t expirations_ = 0;
  // Telemetry handles; null when the world has no registry attached.
  obs::Counter* m_grants_ = nullptr;
  obs::Counter* m_renewals_ = nullptr;
  obs::Counter* m_cancellations_ = nullptr;
  obs::Counter* m_expirations_ = nullptr;
  // Expiry events may still sit in the simulator when the table's owner is
  // destroyed mid-run; they check this token and become no-ops.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  // save()'s canonical-order buffer, reused so steady-state checkpoints do
  // not allocate.
  mutable std::vector<std::pair<std::uint64_t, const Lease*>> save_leases_;
};

}  // namespace aroma::disco

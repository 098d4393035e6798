// Session objects: single-owner access control for shared services.
//
// "Session objects are used to ensure that another user cannot
// inadvertently 'hijack' either the use or control of the projector."
// Sessions are lease-backed so that a user who forgets to relinquish
// control is recovered automatically (the paper's abstract-layer wish).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "disco/lease.hpp"
#include "sim/world.hpp"

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::app {

using SessionToken = std::uint64_t;

struct SessionStats {
  std::uint64_t acquisitions = 0;
  std::uint64_t rejections = 0;       // busy: attempted hijack refused
  std::uint64_t releases = 0;
  std::uint64_t expirations = 0;      // forgotten sessions auto-recovered
  std::uint64_t renewals = 0;
};

/// Guards one shared resource. At most one owner at a time; ownership is a
/// lease that expires unless renewed.
class SessionManager {
 public:
  struct Params {
    sim::Time lease = sim::Time::sec(60.0);
  };

  SessionManager(sim::World& world, std::string resource_name);
  SessionManager(sim::World& world, std::string resource_name, Params params);

  /// Attempts to acquire for `owner`. Returns a token, or nullopt when the
  /// resource is held by someone else (hijack attempt -> rejected). An
  /// owner re-acquiring their own live session gets the same token.
  std::optional<SessionToken> acquire(std::uint64_t owner);

  /// Keeps the session alive. False for stale/foreign tokens.
  bool renew(SessionToken token);

  /// Releases if `token` is current. False otherwise.
  bool release(SessionToken token);

  bool busy() const { return current_.has_value(); }
  std::optional<std::uint64_t> owner() const;
  bool valid(SessionToken token) const;

  const SessionStats& stats() const { return stats_; }
  const std::string& resource_name() const { return name_; }

  /// Fires on every ownership change; `owner` is 0 when freed.
  void set_owner_change_callback(std::function<void(std::uint64_t)> cb) {
    on_change_ = std::move(cb);
  }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // Checkpointable at any instant: the only scheduled state is the lease
  // table's tracked expiry checks. The owner-change callback is structural
  // (re-bound by whoever owns the manager).
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  struct Current {
    SessionToken token;
    std::uint64_t owner;
  };
  void expire();

  sim::World& world_;
  std::string name_;
  Params params_;
  disco::LeaseTable leases_;
  std::optional<Current> current_;
  SessionToken next_token_ = 1;
  SessionStats stats_;
  std::function<void(std::uint64_t)> on_change_;
};

}  // namespace aroma::app

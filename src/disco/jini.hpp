// Jini-style service discovery: registrar (lookup service), join protocol,
// lease renewal, lookup, and remote-event subscriptions.
//
// This reproduces the discovery substrate the Smart Projector used: a
// lookup service found via multicast, unicast join with a leased
// registration, template lookup, and event notification so clients can
// reflect availability changes (the paper's "icons on the user's desktop
// should change their appearance accordingly").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "disco/lease.hpp"
#include "disco/service.hpp"
#include "net/stack.hpp"
#include "sim/world.hpp"

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::disco {

/// The port every JiniClient binds: registrars answer and announce to it.
inline constexpr net::Port kClientPort = 4161;

/// Wire message types on the registrar port.
enum class JiniMsg : std::uint8_t {
  kDiscoveryRequest = 1,   // multicast: "any registrars out there?"
  kDiscoveryResponse,      // unicast: "here"
  kAnnounce,               // multicast: periodic registrar announcement
  kRegister,               // unicast SA->reg: description + lease request
  kRegisterResponse,       // unicast: service id + granted lease
  kRenew,                  // unicast: extend lease
  kRenewResponse,
  kCancel,                 // unicast: withdraw registration
  kLookup,                 // unicast UA->reg: template
  kLookupResponse,         // unicast: matching descriptions
  kNotifyRequest,          // unicast: leased event subscription
  kNotifyResponse,         // subscription id
  kEvent,                  // unicast reg->listener: service appeared/vanished
};

struct RegistrarStats {
  std::uint64_t registrations = 0;
  std::uint64_t renewals = 0;
  std::uint64_t lookups = 0;
  std::uint64_t lease_expirations = 0;
  std::uint64_t events_sent = 0;
  std::uint64_t discovery_responses = 0;
};

/// The lookup service. One per world is typical; several can coexist (the
/// client discovers all in range).
class JiniRegistrar {
 public:
  struct Params {
    sim::Time announce_interval = sim::Time::sec(10.0);
    sim::Time max_lease = sim::Time::sec(60.0);
  };

  JiniRegistrar(sim::World& world, net::NetStack& stack);
  JiniRegistrar(sim::World& world, net::NetStack& stack, Params params);
  ~JiniRegistrar();
  JiniRegistrar(const JiniRegistrar&) = delete;
  JiniRegistrar& operator=(const JiniRegistrar&) = delete;

  std::size_t registered_count() const { return services_.size(); }
  const RegistrarStats& stats() const { return stats_; }
  net::NodeId node() const { return stack_.node_id(); }

  /// Publishes RegistrarStats to the world's metrics registry (pull-style;
  /// call before snapshotting). No-op when telemetry is off.
  void publish_metrics() const;

  /// Crash/restore hook for fault-tolerance experiments: while disabled
  /// the registrar neither answers requests nor announces itself.
  void set_enabled(bool on);
  bool enabled() const { return enabled_; }

  /// All currently registered services matching a template (local query,
  /// used by tests and the analyzer).
  std::vector<ServiceDescription> snapshot(const ServiceTemplate& t) const;

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // Checkpointable at any instant: the only scheduled events are the
  // announcer (a PeriodicTimer, re-armed verbatim) and the lease table's
  // tracked expiry checks.
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  struct Subscription {
    std::uint64_t id;
    net::Endpoint listener;
    ServiceTemplate tmpl;
  };

  void on_datagram(const net::Datagram& dg);
  void announce();
  void notify(const ServiceDescription& s, bool appeared);
  void expire_service(ServiceId id);

  sim::World& world_;
  net::NetStack& stack_;
  Params params_;
  LeaseTable leases_;
  ServiceTable services_;
  std::vector<Subscription> subscriptions_;
  ServiceId next_service_id_ = 1;
  std::uint64_t next_subscription_id_ = 1;
  RegistrarStats stats_;
  std::unique_ptr<sim::PeriodicTimer> announcer_;
  bool enabled_ = true;
  // save() serializes each description through this reused buffer, so
  // steady-state checkpoints do not allocate.
  mutable net::ByteWriter save_scratch_;
};

/// Client-side discovery agent: finds registrars, joins services to them
/// with automatic lease renewal, and performs lookups/subscriptions.
class JiniClient {
 public:
  struct Params {
    sim::Time discovery_timeout = sim::Time::sec(1.0);
    sim::Time lease_request = sim::Time::sec(30.0);
    double renew_fraction = 0.5;   // renew when this much lease remains
    int discovery_retries = 3;
    /// A registrar silent for this long is considered gone (a crashed
    /// lookup service stops announcing; clients fail over to another).
    sim::Time registrar_staleness = sim::Time::sec(25.0);
    /// Unanswered lookups fail with an empty result after this long.
    sim::Time lookup_timeout = sim::Time::sec(5.0);
  };

  using RegistrarFound = std::function<void(net::NodeId registrar)>;
  using LookupResult =
      std::function<void(std::vector<ServiceDescription> services)>;
  using RegisterResult = std::function<void(bool ok, ServiceId id)>;
  using EventCallback =
      std::function<void(const ServiceDescription& s, bool appeared)>;

  JiniClient(sim::World& world, net::NetStack& stack);
  JiniClient(sim::World& world, net::NetStack& stack, Params params);
  /// Safe to destroy while the simulation keeps running: bound ports are
  /// released and in-flight timer callbacks become no-ops.
  ~JiniClient();
  JiniClient(const JiniClient&) = delete;
  JiniClient& operator=(const JiniClient&) = delete;

  /// Multicasts a discovery request; invokes `cb` for each registrar found
  /// (first response per registrar). Also learns from announcements.
  void discover(RegistrarFound cb);

  /// True once at least one live (recently heard) registrar is known.
  bool has_registrar() const { return pick_registrar() != 0; }
  std::vector<net::NodeId> registrars() const;

  /// Join: registers `description` with the first known registrar (running
  /// discovery first if needed) and keeps the lease renewed until
  /// `withdraw` is called. The description's endpoint/id fields are used
  /// as given; the registrar assigns the authoritative id via `cb`.
  void register_service(ServiceDescription description, RegisterResult cb);
  void withdraw(ServiceId id);

  /// Lookup on the first known registrar (discovering if needed).
  void lookup(const ServiceTemplate& tmpl, LookupResult cb);

  /// Leased event subscription for services matching `tmpl`.
  void subscribe(const ServiceTemplate& tmpl, EventCallback cb);

  /// Messages this client has sent (for protocol-cost experiments).
  std::uint64_t messages_sent() const { return messages_sent_; }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // Pending discovery/lookup exchanges hold result callbacks (code), so the
  // client is only checkpointable with no exchange in flight; an answered
  // lookup's timers are cancelled with it. Each held lease's renewal
  // one-shot is saved with the lease and re-armed verbatim on restore.
  bool snap_quiescent(std::string* why) const;
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  struct PendingRegistration {
    ServiceDescription desc;
    RegisterResult cb;
    std::uint32_t token;
  };

  void on_datagram(const net::Datagram& dg);
  void send_discovery(int attempt);
  void with_registrar(std::function<void(net::NodeId)> action);
  /// Most recently heard non-stale registrar, or 0 when none qualify.
  net::NodeId pick_registrar() const;

  sim::World& world_;
  net::NetStack& stack_;
  Params params_;
  net::Port port_;
  std::map<net::NodeId, sim::Time> registrars_;  // node -> last heard
  RegistrarFound on_registrar_;
  std::vector<std::function<void(net::NodeId)>> waiting_;
  struct HeldRegistration {
    sim::Time lease;
    ServiceDescription desc;  // kept for re-registration after failover
    sim::EventHandle renewal;  // pending for as long as the lease is held
  };
  std::map<std::uint32_t, PendingRegistration> pending_reg_;
  struct PendingLookup {
    LookupResult cb;
    sim::EventHandle timeout;
  };
  std::map<std::uint32_t, PendingLookup> pending_lookup_;
  std::map<ServiceId, HeldRegistration> held_leases_;

  /// Ends a pending lookup: cancels its timeout, erases it and returns its
  /// callback.
  LookupResult take_lookup(std::map<std::uint32_t, PendingLookup>::iterator it);
  /// Schedules `held`'s next renewal, cancelling the one it supersedes.
  void schedule_renewal(ServiceId id, HeldRegistration& held);
  std::function<void()> make_renewal(ServiceId id);
  /// Forgets a held lease and cancels its renewal.
  void drop_held(std::map<ServiceId, HeldRegistration>::iterator it);

  EventCallback on_event_;
  std::uint32_t next_token_ = 1;
  std::uint64_t messages_sent_ = 0;
  // True exactly while the discovery timeout is pending.
  bool discovering_ = false;
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  mutable net::ByteWriter save_scratch_;  // see JiniRegistrar
};

}  // namespace aroma::disco

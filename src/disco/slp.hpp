// SLP-style service discovery baseline (Service Location Protocol, RFC 2608
// shape): an optional Directory Agent, unicast registration when a DA is
// present, and DA-less multicast convergecast when it is not.
//
// Included as a comparator for the FIG3 resource-layer experiments: the
// paper situates Jini among competing discovery technologies; SLP differs
// in degrading gracefully to a registrar-less mode.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "disco/lease.hpp"
#include "disco/service.hpp"
#include "net/stack.hpp"
#include "sim/world.hpp"

namespace aroma::disco {

enum class SlpMsg : std::uint8_t {
  kDaAdvert = 1,
  kSrvReg,
  kSrvAck,
  kSrvRqst,        // unicast to DA or multicast to SAs
  kSrvRply,
};

/// Directory Agent: the registrar role.
class SlpDirectoryAgent {
 public:
  struct Params {
    sim::Time advert_interval = sim::Time::sec(10.0);
    sim::Time max_lifetime = sim::Time::sec(60.0);
  };

  SlpDirectoryAgent(sim::World& world, net::NetStack& stack);
  SlpDirectoryAgent(sim::World& world, net::NetStack& stack, Params params);
  ~SlpDirectoryAgent();
  SlpDirectoryAgent(const SlpDirectoryAgent&) = delete;
  SlpDirectoryAgent& operator=(const SlpDirectoryAgent&) = delete;

  std::size_t registered_count() const { return services_.size(); }

 private:
  void on_datagram(const net::Datagram& dg);
  void advertise();

  sim::World& world_;
  net::NetStack& stack_;
  Params params_;
  LeaseTable leases_;
  ServiceTable services_;
  ServiceId next_id_ = 1;
  std::unique_ptr<sim::PeriodicTimer> advertiser_;
};

/// Service Agent: advertises one or more local services. Registers with a
/// DA when one is known; otherwise answers multicast requests directly.
class SlpServiceAgent {
 public:
  struct Params {
    sim::Time lifetime = sim::Time::sec(30.0);
    double reregister_fraction = 0.5;
  };

  SlpServiceAgent(sim::World& world, net::NetStack& stack);
  SlpServiceAgent(sim::World& world, net::NetStack& stack, Params params);
  ~SlpServiceAgent();
  SlpServiceAgent(const SlpServiceAgent&) = delete;
  SlpServiceAgent& operator=(const SlpServiceAgent&) = delete;

  /// Starts advertising `description`; re-registers automatically.
  void advertise(ServiceDescription description);
  void withdraw_all() { advertised_.clear(); }

  bool has_da() const { return da_node_ != 0; }
  std::uint64_t messages_sent() const { return messages_sent_; }

 private:
  void on_datagram(const net::Datagram& dg);
  void register_with_da(const ServiceDescription& desc);
  void schedule_reregister(std::size_t index);

  sim::World& world_;
  net::NetStack& stack_;
  Params params_;
  net::NodeId da_node_ = 0;
  std::vector<ServiceDescription> advertised_;
  std::uint64_t messages_sent_ = 0;
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

/// User Agent: issues service requests.
class SlpUserAgent {
 public:
  struct Params {
    sim::Time multicast_wait = sim::Time::sec(1.0);
    /// Retransmits per DA-less find while no reply has been gathered; 0
    /// keeps the legacy single-shot behaviour. With `jitter` the k-th gap
    /// is multicast_wait * 2^k stretched by a deterministic seed-derived
    /// factor in [1, 1.5); without it every gap is exactly multicast_wait
    /// (naive fixed spacing, kept as the comparison baseline).
    int retries = 0;
    bool jitter = true;
    std::uint64_t jitter_seed = 0xbb67ae8584caa73bULL;
  };

  using FindResult = std::function<void(std::vector<ServiceDescription>)>;

  SlpUserAgent(sim::World& world, net::NetStack& stack);
  SlpUserAgent(sim::World& world, net::NetStack& stack, Params params);
  ~SlpUserAgent();
  SlpUserAgent(const SlpUserAgent&) = delete;
  SlpUserAgent& operator=(const SlpUserAgent&) = delete;

  /// Unicast to the DA when known; otherwise multicast and gather replies
  /// for `multicast_wait` before invoking the callback.
  void find(const ServiceTemplate& tmpl, FindResult cb);

  bool has_da() const { return da_node_ != 0; }
  std::uint64_t messages_sent() const { return messages_sent_; }

 private:
  void on_datagram(const net::Datagram& dg);
  void send_request(std::uint32_t token, const ServiceTemplate& tmpl);
  void arm_retry(std::uint32_t token, int attempt);
  sim::Time retry_gap(std::uint32_t token, int attempt) const;

  sim::World& world_;
  net::NetStack& stack_;
  Params params_;
  net::NodeId da_node_ = 0;
  struct Pending {
    FindResult cb;
    std::vector<ServiceDescription> gathered;
    bool multicast = false;
    ServiceTemplate tmpl;  // kept for retransmits
  };
  std::map<std::uint32_t, Pending> pending_;
  std::uint32_t next_token_ = 1;
  std::uint64_t messages_sent_ = 0;
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

}  // namespace aroma::disco

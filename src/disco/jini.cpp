#include "disco/jini.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/random.hpp"
#include "snap/format.hpp"

namespace aroma::disco {

namespace {
constexpr net::Port kClientPort = 4161;  // client agent unicast/announce port
constexpr std::uint64_t kSubLeaseKeyBase = 1ULL << 32;
}  // namespace

// ---------------------------------------------------------------------------
// JiniRegistrar

JiniRegistrar::JiniRegistrar(sim::World& world, net::NetStack& stack)
    : JiniRegistrar(world, stack, Params{}) {}

JiniRegistrar::JiniRegistrar(sim::World& world, net::NetStack& stack,
                             Params params)
    : world_(world), stack_(stack), params_(params), leases_(world) {
  stack_.bind(net::kRegistrarPort,
              [this](const net::Datagram& dg) { on_datagram(dg); });
  stack_.join_group(net::kDiscoveryGroup);
  announcer_ = std::make_unique<sim::PeriodicTimer>(
      world_.sim(), params_.announce_interval, [this] { announce(); });
  announcer_->start_after(sim::Time::ms(10));
  if (params_.cache_capacity > 0) {
    cache_ = std::make_unique<QueryCache>(params_.cache_capacity);
  }
  if (params_.admission_capacity > 0) {
    admission_ = std::make_unique<AdmissionController>(
        world_, AdmissionController::Params{params_.admission_capacity,
                                            params_.admission_service_time});
  }
  if (params_.federate) {
    federation_ = std::make_unique<FederationPeer>(
        world_, stack_, params_.federation,
        [this](const ServiceTemplate& tmpl) {
          // Peers answer from the local index only (one hop, no loops).
          std::vector<ServiceDescription> out;
          for (const ServiceId id : local_match(tmpl)) {
            out.push_back(*index_.find(id));
          }
          return out;
        });
  }
}

JiniRegistrar::~JiniRegistrar() {
  stack_.unbind(net::kRegistrarPort);
}

void JiniRegistrar::publish_metrics() const {
  obs::MetricsRegistry* m = world_.metrics();
  if (m == nullptr) return;
  const auto layer = lpc::Layer::kAbstract;
  m->set_counter("disco.registrar.registrations", layer,
                 stats_.registrations);
  m->set_counter("disco.registrar.renewals", layer, stats_.renewals);
  m->set_counter("disco.registrar.lookups", layer, stats_.lookups);
  m->set_counter("disco.registrar.lease_expirations", layer,
                 stats_.lease_expirations);
  m->set_counter("disco.registrar.events_sent", layer, stats_.events_sent);
  m->set_counter("disco.registrar.discovery_responses", layer,
                 stats_.discovery_responses);
}

void JiniRegistrar::set_enabled(bool on) {
  if (enabled_ == on) return;
  enabled_ = on;
  if (on) {
    announcer_->start_after(sim::Time::ms(10));
  } else {
    announcer_->stop();
  }
}

void JiniRegistrar::announce() {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JiniMsg::kAnnounce));
  stack_.send_multicast(net::kAnnounceGroup, kClientPort, net::kRegistrarPort,
                        w.take());
}

std::vector<ServiceDescription> JiniRegistrar::snapshot(
    const ServiceTemplate& t) const {
  std::vector<ServiceDescription> out;
  for (const ServiceId id : index_.match(t)) {
    out.push_back(*index_.find(id));
  }
  return out;
}

void JiniRegistrar::set_peers(std::vector<net::NodeId> peers) {
  if (federation_) federation_->set_peers(std::move(peers));
}

void JiniRegistrar::set_issue_hook(AdmissionController::IssueHook hook) {
  if (admission_) admission_->set_issue_hook(std::move(hook));
}

void JiniRegistrar::expire_service(ServiceId id) {
  const ServiceDescription* found = index_.find(id);
  if (found == nullptr) return;
  const ServiceDescription s = *found;
  index_.erase(id);
  ++stats_.lease_expirations;
  notify(s, /*appeared=*/false);
}

std::vector<ServiceId> JiniRegistrar::local_match(const ServiceTemplate& tmpl) {
  if (!cache_) return index_.match(tmpl);
  const std::string key = QueryCache::key_of(tmpl);
  if (const std::vector<ServiceId>* ids = cache_->lookup(key, index_.epoch())) {
    return *ids;
  }
  std::vector<ServiceId> ids = index_.match(tmpl);
  cache_->insert(key, index_.epoch(), ids);
  return ids;
}

void JiniRegistrar::send_lookup_response(
    net::NodeId requester, std::uint32_t token,
    const std::vector<ServiceId>& ids,
    const std::vector<ServiceDescription>& remote) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JiniMsg::kLookupResponse));
  w.u32(token);
  w.u32(static_cast<std::uint32_t>(ids.size() + remote.size()));
  for (const ServiceId id : ids) index_.find(id)->serialize(w);
  for (const auto& m : remote) m.serialize(w);
  stack_.send(net::Endpoint{requester, kClientPort}, net::kRegistrarPort,
              w.take());
}

void JiniRegistrar::answer_lookup(net::NodeId requester, std::uint32_t token,
                                  const ServiceTemplate& tmpl) {
  const std::vector<ServiceId> ids = local_match(tmpl);
  if (ids.empty() && federation_ && !federation_->peers().empty()) {
    // Local miss: ask the peer pool before answering empty-handed.
    ++stats_.lookups_delegated;
    ++pending_replies_;
    federation_->delegate(
        tmpl, [this, requester, token](std::vector<ServiceDescription> remote) {
          --pending_replies_;
          send_lookup_response(requester, token, {}, remote);
        });
    return;
  }
  send_lookup_response(requester, token, ids, {});
}

void JiniRegistrar::notify(const ServiceDescription& s, bool appeared) {
  for (const auto& sub : subscriptions_) {
    if (!sub.tmpl.matches(s)) continue;
    net::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(JiniMsg::kEvent));
    w.u8(appeared ? 1 : 0);
    s.serialize(w);
    ++stats_.events_sent;
    stack_.send(sub.listener, net::kRegistrarPort, w.take());
  }
}

void JiniRegistrar::on_datagram(const net::Datagram& dg) {
  if (!enabled_) return;  // crashed: requests fall on the floor
  net::ByteReader r(dg.data);
  const auto msg = static_cast<JiniMsg>(r.u8());
  if (!r.ok()) return;

  switch (msg) {
    case JiniMsg::kDiscoveryRequest: {
      net::ByteWriter w;
      w.u8(static_cast<std::uint8_t>(JiniMsg::kDiscoveryResponse));
      ++stats_.discovery_responses;
      stack_.send(net::Endpoint{dg.src.node, kClientPort},
                  net::kRegistrarPort, w.take());
      return;
    }
    case JiniMsg::kRegister: {
      const std::uint32_t token = r.u32();
      const auto lease_req = sim::Time::ns(static_cast<std::int64_t>(r.u64()));
      ServiceDescription desc = ServiceDescription::deserialize(r);
      if (!r.ok()) return;
      const ServiceId id = next_service_id_++;
      desc.id = id;
      index_.insert(desc);
      const sim::Time lease = std::min(lease_req, params_.max_lease);
      leases_.grant(id, lease, [this, id] { expire_service(id); });
      ++stats_.registrations;
      net::ByteWriter w;
      w.u8(static_cast<std::uint8_t>(JiniMsg::kRegisterResponse));
      w.u32(token);
      w.u64(id);
      w.u64(static_cast<std::uint64_t>(lease.count()));
      stack_.send(net::Endpoint{dg.src.node, kClientPort},
                  net::kRegistrarPort, w.take());
      notify(desc, /*appeared=*/true);
      return;
    }
    case JiniMsg::kRenew: {
      const ServiceId id = r.u64();
      const auto lease_req = sim::Time::ns(static_cast<std::int64_t>(r.u64()));
      const sim::Time lease = std::min(lease_req, params_.max_lease);
      const bool ok = leases_.renew(id, lease);
      if (ok) ++stats_.renewals;
      net::ByteWriter w;
      w.u8(static_cast<std::uint8_t>(JiniMsg::kRenewResponse));
      w.u64(id);
      w.u8(ok ? 1 : 0);
      stack_.send(net::Endpoint{dg.src.node, kClientPort},
                  net::kRegistrarPort, w.take());
      return;
    }
    case JiniMsg::kCancel: {
      const ServiceId id = r.u64();
      if (const ServiceDescription* found = index_.find(id)) {
        const ServiceDescription s = *found;
        index_.erase(id);
        leases_.cancel(id);
        notify(s, /*appeared=*/false);
      }
      return;
    }
    case JiniMsg::kLookup: {
      const std::uint32_t token = r.u32();
      const ServiceTemplate tmpl = ServiceTemplate::deserialize(r);
      if (!r.ok()) return;
      ++stats_.lookups;
      if (admission_) {
        const auto decision = admission_->decide();
        if (!decision.admitted) {
          ++stats_.lookups_shed;
          net::ByteWriter w;
          w.u8(static_cast<std::uint8_t>(JiniMsg::kLookupBusy));
          w.u32(token);
          stack_.send(net::Endpoint{dg.src.node, kClientPort},
                      net::kRegistrarPort, w.take());
          return;
        }
        if (!decision.delay.is_zero()) {
          // Admitted behind a backlog: the reply leaves when this
          // request's slot in the virtual queue completes.
          ++pending_replies_;
          world_.sim().schedule_in(
              decision.delay, sim::EventCategory::kDiscovery,
              [this, requester = dg.src.node, token, tmpl,
               guard = std::weak_ptr<char>(alive_)] {
                if (guard.expired()) return;
                --pending_replies_;
                answer_lookup(requester, token, tmpl);
              });
          return;
        }
      }
      answer_lookup(dg.src.node, token, tmpl);
      return;
    }
    case JiniMsg::kNotifyRequest: {
      const std::uint32_t token = r.u32();
      const auto lease_req = sim::Time::ns(static_cast<std::int64_t>(r.u64()));
      const ServiceTemplate tmpl = ServiceTemplate::deserialize(r);
      if (!r.ok()) return;
      Subscription sub;
      sub.id = next_subscription_id_++;
      sub.listener = net::Endpoint{dg.src.node, kClientPort};
      sub.tmpl = tmpl;
      subscriptions_.push_back(sub);
      const sim::Time lease = std::min(lease_req, params_.max_lease * 10);
      const std::uint64_t key = kSubLeaseKeyBase + sub.id;
      const std::uint64_t sid = sub.id;
      leases_.grant(key, lease, [this, sid] {
        subscriptions_.erase(
            std::remove_if(subscriptions_.begin(), subscriptions_.end(),
                           [&](const Subscription& s) { return s.id == sid; }),
            subscriptions_.end());
      });
      net::ByteWriter w;
      w.u8(static_cast<std::uint8_t>(JiniMsg::kNotifyResponse));
      w.u32(token);
      w.u64(sub.id);
      stack_.send(sub.listener, net::kRegistrarPort, w.take());
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// JiniClient

JiniClient::JiniClient(sim::World& world, net::NetStack& stack)
    : JiniClient(world, stack, Params{}) {}

JiniClient::JiniClient(sim::World& world, net::NetStack& stack, Params params)
    : world_(world), stack_(stack), params_(params), port_(kClientPort) {
  stack_.bind(port_, [this](const net::Datagram& dg) { on_datagram(dg); });
  stack_.join_group(net::kAnnounceGroup);
}

JiniClient::~JiniClient() { stack_.unbind(port_); }

std::vector<net::NodeId> JiniClient::registrars() const {
  std::vector<net::NodeId> out;
  out.reserve(registrars_.size());
  for (const auto& [node, t] : registrars_) out.push_back(node);
  return out;
}

void JiniClient::discover(RegistrarFound cb) {
  on_registrar_ = std::move(cb);
  if (!discovering_) {
    discovering_ = true;
    send_discovery(0);
  }
}

void JiniClient::send_discovery(int attempt) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JiniMsg::kDiscoveryRequest));
  ++messages_sent_;
  stack_.send_multicast(net::kDiscoveryGroup, net::kRegistrarPort, port_,
                        w.take());
  ++outstanding_timeouts_;
  world_.sim().schedule_in(params_.discovery_timeout,
                           sim::EventCategory::kDiscovery,
                           [this, attempt, guard = std::weak_ptr<char>(alive_)] {
    if (guard.expired()) return;
    --outstanding_timeouts_;
    if (has_registrar()) {
      discovering_ = false;
      return;
    }
    if (attempt + 1 < params_.discovery_retries) {
      send_discovery(attempt + 1);
    } else {
      discovering_ = false;
      obs::emit_instant(world_, "disco.jini.discovery_exhausted",
                        lpc::Layer::kResource, sim::TraceLevel::kWarn);
      // Fail anything still waiting: node 0 signals "no registrar".
      auto waiting = std::move(waiting_);
      waiting_.clear();
      for (auto& action : waiting) action(0);
    }
  });
}

net::NodeId JiniClient::pick_registrar() const {
  net::NodeId best = 0;
  sim::Time best_heard = sim::Time::zero();
  const sim::Time now = world_.now();
  for (const auto& [node, heard] : registrars_) {
    // Fresh knowledge only: a registrar that stopped announcing is dead to
    // us, so clients fail over to whoever is still talking.
    if (now - heard > params_.registrar_staleness) continue;
    if (best == 0 || heard > best_heard) {
      best = node;
      best_heard = heard;
    }
  }
  return best;
}

void JiniClient::with_registrar(std::function<void(net::NodeId)> action) {
  if (const net::NodeId reg = pick_registrar(); reg != 0) {
    action(reg);
    return;
  }
  waiting_.push_back(std::move(action));
  if (!discovering_) {
    discovering_ = true;
    send_discovery(0);
  }
}

void JiniClient::register_service(ServiceDescription description,
                                  RegisterResult cb) {
  const std::uint32_t token = next_token_++;
  pending_reg_[token] = PendingRegistration{description, cb, token};
  with_registrar([this, token](net::NodeId reg) {
    auto it = pending_reg_.find(token);
    if (it == pending_reg_.end()) return;
    if (reg == 0) {
      auto cb = std::move(it->second.cb);
      pending_reg_.erase(it);
      if (cb) cb(false, 0);
      return;
    }
    net::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(JiniMsg::kRegister));
    w.u32(token);
    w.u64(static_cast<std::uint64_t>(params_.lease_request.count()));
    it->second.desc.serialize(w);
    ++messages_sent_;
    stack_.send(net::Endpoint{reg, net::kRegistrarPort}, port_, w.take());
  });
}

void JiniClient::withdraw(ServiceId id) {
  held_leases_.erase(id);
  with_registrar([this, id](net::NodeId reg) {
    if (reg == 0) return;
    net::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(JiniMsg::kCancel));
    w.u64(id);
    ++messages_sent_;
    stack_.send(net::Endpoint{reg, net::kRegistrarPort}, port_, w.take());
  });
}

void JiniClient::lookup(const ServiceTemplate& tmpl, LookupResult cb) {
  const std::uint32_t token = next_token_++;
  // End-to-end lookup latency (request to response-or-timeout), recorded
  // whichever path eventually invokes the callback.
  if (obs::HdrHistogram* h =
          obs::hdr(world_, "disco.lookup.latency_us", lpc::Layer::kAbstract)) {
    cb = [this, h, t0 = world_.now(),
          inner = std::move(cb)](std::vector<ServiceDescription> items) {
      h->record(static_cast<std::uint64_t>((world_.now() - t0).count() / 1000));
      if (inner) inner(std::move(items));
    };
  }
  pending_lookup_[token] = PendingLookup{std::move(cb), tmpl, 0};
  // Unanswered lookups (e.g. the registrar died mid-request) fail cleanly.
  ++outstanding_timeouts_;
  world_.sim().schedule_in(params_.lookup_timeout,
                           sim::EventCategory::kDiscovery,
                           [this, token, guard = std::weak_ptr<char>(alive_)] {
                             if (guard.expired()) return;
                             --outstanding_timeouts_;
                             auto it = pending_lookup_.find(token);
                             if (it == pending_lookup_.end()) return;
                             auto cb = std::move(it->second.cb);
                             pending_lookup_.erase(it);
                             if (cb) cb({});
                           });
  send_lookup(token);
}

void JiniClient::send_lookup(std::uint32_t token) {
  with_registrar([this, token](net::NodeId reg) {
    auto it = pending_lookup_.find(token);
    if (it == pending_lookup_.end()) return;
    if (reg == 0) {
      auto cb = std::move(it->second.cb);
      pending_lookup_.erase(it);
      if (cb) cb({});
      return;
    }
    net::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(JiniMsg::kLookup));
    w.u32(token);
    it->second.tmpl.serialize(w);
    ++messages_sent_;
    stack_.send(net::Endpoint{reg, net::kRegistrarPort}, port_, w.take());
  });
}

void JiniClient::subscribe(const ServiceTemplate& tmpl, EventCallback cb) {
  on_event_ = std::move(cb);
  with_registrar([this, tmpl](net::NodeId reg) {
    if (reg == 0) return;
    net::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(JiniMsg::kNotifyRequest));
    w.u32(next_token_++);
    w.u64(static_cast<std::uint64_t>((params_.lease_request * 20).count()));
    tmpl.serialize(w);
    ++messages_sent_;
    stack_.send(net::Endpoint{reg, net::kRegistrarPort}, port_, w.take());
  });
}

void JiniClient::schedule_renewal(ServiceId id, sim::Time lease) {
  const sim::Time delay = sim::scale(lease, params_.renew_fraction);
  const sim::EventHandle h = world_.sim().schedule_in(
      delay, sim::EventCategory::kDiscovery, make_renewal(id, lease));
  renewal_events_[id] = RenewalEvent{lease, h};
}

std::function<void()> JiniClient::make_renewal(ServiceId id, sim::Time lease) {
  return [this, id, lease, guard = std::weak_ptr<char>(alive_)] {
    if (guard.expired()) return;
    renewal_events_.erase(id);
    auto it = held_leases_.find(id);
    if (it == held_leases_.end()) return;  // withdrawn
    {
      // Scoped so the renew request (and the radio frame carrying it)
      // parents here, while the next periodic renewal does not.
      obs::ScopedSpan span(world_, "disco.renew", lpc::Layer::kAbstract);
      span.annotate("service", std::to_string(id));
      with_registrar([this, id, lease](net::NodeId reg) {
        if (reg == 0) return;
        net::ByteWriter w;
        w.u8(static_cast<std::uint8_t>(JiniMsg::kRenew));
        w.u64(id);
        w.u64(static_cast<std::uint64_t>(lease.count()));
        ++messages_sent_;
        stack_.send(net::Endpoint{reg, net::kRegistrarPort}, port_, w.take());
      });
    }
    schedule_renewal(id, lease);
  };
}

void JiniClient::on_datagram(const net::Datagram& dg) {
  net::ByteReader r(dg.data);
  const auto msg = static_cast<JiniMsg>(r.u8());
  if (!r.ok()) return;

  switch (msg) {
    case JiniMsg::kDiscoveryResponse:
    case JiniMsg::kAnnounce: {
      const bool is_new = registrars_.find(dg.src.node) == registrars_.end();
      registrars_[dg.src.node] = world_.now();
      if (is_new && on_registrar_) on_registrar_(dg.src.node);
      if (!waiting_.empty()) {
        auto waiting = std::move(waiting_);
        waiting_.clear();
        for (auto& action : waiting) action(dg.src.node);
      }
      return;
    }
    case JiniMsg::kRegisterResponse: {
      const std::uint32_t token = r.u32();
      const ServiceId id = r.u64();
      const auto lease = sim::Time::ns(static_cast<std::int64_t>(r.u64()));
      auto it = pending_reg_.find(token);
      if (it == pending_reg_.end()) return;
      auto cb = std::move(it->second.cb);
      ServiceDescription desc = std::move(it->second.desc);
      pending_reg_.erase(it);
      held_leases_[id] = HeldRegistration{lease, std::move(desc)};
      schedule_renewal(id, lease);
      if (cb) cb(true, id);
      return;
    }
    case JiniMsg::kRenewResponse: {
      const ServiceId id = r.u64();
      const bool ok = r.u8() != 0;
      if (ok) return;
      // The registrar does not know this lease: it crashed/restarted or we
      // failed over to a different one. Re-register (Jini's JoinManager
      // behaviour) so the service reappears wherever clients now look.
      auto held = held_leases_.find(id);
      if (held == held_leases_.end()) return;
      ServiceDescription desc = std::move(held->second.desc);
      held_leases_.erase(held);
      register_service(std::move(desc), {});
      return;
    }
    case JiniMsg::kLookupResponse: {
      const std::uint32_t token = r.u32();
      const std::uint32_t n = r.u32();
      std::vector<ServiceDescription> services;
      services.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        services.push_back(ServiceDescription::deserialize(r));
      }
      auto it = pending_lookup_.find(token);
      if (it == pending_lookup_.end()) return;
      auto cb = std::move(it->second.cb);
      pending_lookup_.erase(it);
      if (cb) cb(std::move(services));
      return;
    }
    case JiniMsg::kLookupBusy: {
      // The registrar shed our lookup under overload. Back off and retry:
      // exponential spacing plus a deterministic per-(client, token,
      // attempt) jitter so the herd that was shed together does not
      // return together.
      const std::uint32_t token = r.u32();
      auto it = pending_lookup_.find(token);
      if (it == pending_lookup_.end()) return;
      if (it->second.busy_attempts >= params_.busy_retries) {
        auto cb = std::move(it->second.cb);
        pending_lookup_.erase(it);
        if (cb) cb({});
        return;
      }
      const int attempt = ++it->second.busy_attempts;
      sim::Time delay = params_.busy_backoff * (1LL << (attempt - 1));
      const std::uint64_t h = sim::mix_hash(
          params_.jitter_seed ^ (static_cast<std::uint64_t>(token) << 20 |
                                 static_cast<std::uint64_t>(attempt)),
          stack_.node_id());
      delay += sim::Time::ns(static_cast<std::int64_t>(
          h % static_cast<std::uint64_t>(params_.busy_backoff.count())));
      ++outstanding_timeouts_;
      world_.sim().schedule_in(
          delay, sim::EventCategory::kDiscovery,
          [this, token, guard = std::weak_ptr<char>(alive_)] {
            if (guard.expired()) return;
            --outstanding_timeouts_;
            if (pending_lookup_.find(token) == pending_lookup_.end()) return;
            send_lookup(token);
          });
      return;
    }
    case JiniMsg::kEvent: {
      const bool appeared = r.u8() != 0;
      const ServiceDescription s = ServiceDescription::deserialize(r);
      if (r.ok() && on_event_) {
        obs::ScopedSpan span(world_, "disco.event", lpc::Layer::kAbstract);
        span.annotate("appeared", appeared ? "1" : "0");
        on_event_(s, appeared);
      }
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore

void JiniRegistrar::save(snap::SectionWriter& w) const {
  if (pending_replies_ != 0) {
    throw snap::SnapError(
        "registrar save: admission-delayed reply in flight (closures are "
        "code, not data; checkpoint between lookup bursts)");
  }
  if (federation_ && !federation_->quiescent()) {
    throw snap::SnapError("registrar save: federation delegation in flight");
  }
  w.u64(stats_.registrations);
  w.u64(stats_.renewals);
  w.u64(stats_.lookups);
  w.u64(stats_.lease_expirations);
  w.u64(stats_.events_sent);
  w.u64(stats_.discovery_responses);
  w.u64(next_service_id_);
  w.u64(next_subscription_id_);
  w.b(enabled_);
  w.u64(index_.services().size());
  for (const auto& [id, desc] : index_.services()) {
    w.u64(id);
    save_scratch_.clear();
    desc.serialize(save_scratch_);
    w.bytes(save_scratch_.data().data(), save_scratch_.size());
  }
  w.u64(subscriptions_.size());
  for (const Subscription& sub : subscriptions_) {
    w.u64(sub.id);
    w.u64(sub.listener.node);
    w.u16(sub.listener.port);
    save_scratch_.clear();
    sub.tmpl.serialize(save_scratch_);
    w.bytes(save_scratch_.data().data(), save_scratch_.size());
  }
  announcer_->save(w);
  leases_.save(w);
}

void JiniRegistrar::restore(snap::SectionReader& r) {
  stats_.registrations = r.u64();
  stats_.renewals = r.u64();
  stats_.lookups = r.u64();
  stats_.lease_expirations = r.u64();
  stats_.events_sent = r.u64();
  stats_.discovery_responses = r.u64();
  next_service_id_ = r.u64();
  next_subscription_id_ = r.u64();
  enabled_ = r.b();
  index_.clear();
  const std::uint64_t n_services = r.u64();
  for (std::uint64_t i = 0; i < n_services; ++i) {
    const ServiceId id = r.u64();
    const std::vector<std::uint8_t> blob = r.bytes();
    net::ByteReader br(std::as_bytes(std::span(blob)));
    ServiceDescription desc = ServiceDescription::deserialize(br);
    if (!br.ok()) {
      throw snap::SnapError("registrar restore: bad service description");
    }
    desc.id = id;
    index_.insert(desc);
  }
  subscriptions_.clear();
  const std::uint64_t n_subs = r.u64();
  for (std::uint64_t i = 0; i < n_subs; ++i) {
    Subscription sub;
    sub.id = r.u64();
    sub.listener.node = r.u64();
    sub.listener.port = r.u16();
    const std::vector<std::uint8_t> blob = r.bytes();
    net::ByteReader br(std::as_bytes(std::span(blob)));
    sub.tmpl = ServiceTemplate::deserialize(br);
    if (!br.ok()) {
      throw snap::SnapError("registrar restore: bad subscription template");
    }
    subscriptions_.push_back(std::move(sub));
  }
  announcer_->restore(r);
  leases_.restore(r, [this](std::uint64_t key) -> std::function<void()> {
    if (key >= kSubLeaseKeyBase) {
      const std::uint64_t sid = key - kSubLeaseKeyBase;
      return [this, sid] {
        subscriptions_.erase(
            std::remove_if(subscriptions_.begin(), subscriptions_.end(),
                           [&](const Subscription& s) { return s.id == sid; }),
            subscriptions_.end());
      };
    }
    const ServiceId id = key;
    return [this, id] { expire_service(id); };
  });
}

bool JiniClient::snap_quiescent(std::string* why) const {
  if (!pending_reg_.empty() || !pending_lookup_.empty()) {
    if (why) *why = "jini client: registration/lookup exchange in flight";
    return false;
  }
  if (discovering_ || !waiting_.empty()) {
    if (why) *why = "jini client: discovery in progress";
    return false;
  }
  if (outstanding_timeouts_ != 0) {
    if (why) *why = "jini client: timeout event scheduled";
    return false;
  }
  return true;
}

void JiniClient::save(snap::SectionWriter& w) const {
  w.u64(registrars_.size());
  for (const auto& [node, heard] : registrars_) {
    w.u64(node);
    w.time_delta(heard);
  }
  w.u32(next_token_);
  w.u64(messages_sent_);
  w.u64(held_leases_.size());
  for (const auto& [id, held] : held_leases_) {
    w.u64(id);
    w.duration(held.lease);
    save_scratch_.clear();
    held.desc.serialize(save_scratch_);
    w.bytes(save_scratch_.data().data(), save_scratch_.size());
  }
  w.u64(renewal_events_.size());
  for (const auto& [id, re] : renewal_events_) {
    const auto info = world_.sim().pending_event_info(re.event);
    if (!info.valid) {
      throw snap::SnapError("jini client save: renewal event vanished");
    }
    w.u64(id);
    w.duration(re.lease);
    w.time_delta(info.when);
    w.u64(info.seq);
    w.u64(info.id);
  }
}

void JiniClient::restore(snap::SectionReader& r) {
  pending_reg_.clear();
  pending_lookup_.clear();
  waiting_.clear();
  discovering_ = false;
  outstanding_timeouts_ = 0;
  renewal_events_.clear();

  registrars_.clear();
  const std::uint64_t n_regs = r.u64();
  for (std::uint64_t i = 0; i < n_regs; ++i) {
    const net::NodeId node = r.u64();
    registrars_[node] = r.time_delta();
  }
  next_token_ = r.u32();
  messages_sent_ = r.u64();
  held_leases_.clear();
  const std::uint64_t n_held = r.u64();
  for (std::uint64_t i = 0; i < n_held; ++i) {
    const ServiceId id = r.u64();
    HeldRegistration held;
    held.lease = r.duration();
    const std::vector<std::uint8_t> blob = r.bytes();
    net::ByteReader br(std::as_bytes(std::span(blob)));
    held.desc = ServiceDescription::deserialize(br);
    if (!br.ok()) {
      throw snap::SnapError("jini client restore: bad held description");
    }
    held_leases_[id] = std::move(held);
  }
  const std::uint64_t n_renewals = r.u64();
  for (std::uint64_t i = 0; i < n_renewals; ++i) {
    const ServiceId id = r.u64();
    const sim::Time lease = r.duration();
    const sim::Time when = r.time_delta();
    const std::uint64_t seq = r.u64();
    const std::uint64_t eid = r.u64();
    const sim::EventHandle h = world_.sim().restore_event(
        when, seq, eid, sim::EventCategory::kDiscovery,
        make_renewal(id, lease));
    renewal_events_[id] = RenewalEvent{lease, h};
  }
}

}  // namespace aroma::disco

#include "disco/jini.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "snap/format.hpp"

namespace aroma::disco {

namespace {
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
  for (const auto& [id, s] : services_) {
    if (t.matches(s)) out.push_back(s);
  }
  return out;
}

void JiniRegistrar::expire_service(ServiceId id) {
  const auto it = services_.find(id);
  if (it == services_.end()) return;
  const ServiceDescription s = std::move(it->second);
  services_.erase(it);
  ++stats_.lease_expirations;
  notify(s, /*appeared=*/false);
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
      services_.insert_or_assign(id, desc);
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
      if (!r.ok()) return;
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
      if (!r.ok()) return;
      if (const auto it = services_.find(id); it != services_.end()) {
        const ServiceDescription s = std::move(it->second);
        services_.erase(it);
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
      net::ByteWriter w;
      w.u8(static_cast<std::uint8_t>(JiniMsg::kLookupResponse));
      w.u32(token);
      write_matches(w, tmpl, services_);
      stack_.send(net::Endpoint{dg.src.node, kClientPort},
                  net::kRegistrarPort, w.take());
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
  world_.sim().schedule_in(params_.discovery_timeout,
                           sim::EventCategory::kDiscovery,
                           [this, attempt, guard = std::weak_ptr<char>(alive_)] {
    if (guard.expired()) return;
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
  if (auto it = held_leases_.find(id); it != held_leases_.end()) {
    drop_held(it);
  }
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
  PendingLookup& pending = pending_lookup_[token];
  pending.cb = std::move(cb);
  // Unanswered lookups (e.g. the registrar died mid-request) fail cleanly.
  pending.timeout = world_.sim().schedule_in(
      params_.lookup_timeout, sim::EventCategory::kDiscovery,
      [this, token, guard = std::weak_ptr<char>(alive_)] {
        if (guard.expired()) return;
        auto it = pending_lookup_.find(token);
        if (it == pending_lookup_.end()) return;
        it->second.timeout = {};
        if (auto cb = take_lookup(it)) cb({});
      });
  with_registrar([this, token, tmpl](net::NodeId reg) {
    auto it = pending_lookup_.find(token);
    if (it == pending_lookup_.end()) return;
    if (reg == 0) {
      if (auto cb = take_lookup(it)) cb({});
      return;
    }
    net::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(JiniMsg::kLookup));
    w.u32(token);
    tmpl.serialize(w);
    ++messages_sent_;
    stack_.send(net::Endpoint{reg, net::kRegistrarPort}, port_, w.take());
  });
}

JiniClient::LookupResult JiniClient::take_lookup(
    std::map<std::uint32_t, PendingLookup>::iterator it) {
  world_.sim().cancel(it->second.timeout);
  LookupResult cb = std::move(it->second.cb);
  pending_lookup_.erase(it);
  return cb;
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

void JiniClient::schedule_renewal(ServiceId id, HeldRegistration& held) {
  world_.sim().cancel(held.renewal);
  held.renewal = world_.sim().schedule_in(
      sim::scale(held.lease, params_.renew_fraction),
      sim::EventCategory::kDiscovery, make_renewal(id));
}

void JiniClient::drop_held(std::map<ServiceId, HeldRegistration>::iterator it) {
  world_.sim().cancel(it->second.renewal);
  held_leases_.erase(it);
}

std::function<void()> JiniClient::make_renewal(ServiceId id) {
  return [this, id, guard = std::weak_ptr<char>(alive_)] {
    if (guard.expired()) return;
    // Withdrawal and re-registration cancel the renewal they end.
    auto it = held_leases_.find(id);
    if (it == held_leases_.end()) return;
    it->second.renewal = {};
    const sim::Time lease = it->second.lease;
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
    schedule_renewal(id, it->second);
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
      if (!r.ok()) return;
      auto it = pending_reg_.find(token);
      if (it == pending_reg_.end()) return;
      auto cb = std::move(it->second.cb);
      HeldRegistration& held = held_leases_[id];
      held.lease = lease;
      held.desc = std::move(it->second.desc);
      pending_reg_.erase(it);
      schedule_renewal(id, held);
      if (cb) cb(true, id);
      return;
    }
    case JiniMsg::kRenewResponse: {
      const ServiceId id = r.u64();
      const bool ok = r.u8() != 0;
      if (!r.ok() || ok) return;
      // The registrar does not know this lease: it crashed/restarted or we
      // failed over to a different one. Re-register (Jini's JoinManager
      // behaviour) so the service reappears wherever clients now look.
      auto held = held_leases_.find(id);
      if (held == held_leases_.end()) return;
      ServiceDescription desc = std::move(held->second.desc);
      drop_held(held);
      register_service(std::move(desc), {});
      return;
    }
    case JiniMsg::kLookupResponse: {
      const std::uint32_t token = r.u32();
      const std::uint32_t n = r.u32();
      std::vector<ServiceDescription> services;
      // Every description takes at least one byte: the count read off the
      // wire cannot size the reservation beyond what the datagram holds.
      services.reserve(std::min<std::size_t>(n, r.remaining()));
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        services.push_back(ServiceDescription::deserialize(r));
      }
      if (!r.ok()) return;  // truncated: a partial list is no answer
      auto it = pending_lookup_.find(token);
      if (it == pending_lookup_.end()) return;
      if (auto cb = take_lookup(it)) cb(std::move(services));
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
  w.u64(stats_.registrations);
  w.u64(stats_.renewals);
  w.u64(stats_.lookups);
  w.u64(stats_.lease_expirations);
  w.u64(stats_.events_sent);
  w.u64(stats_.discovery_responses);
  w.u64(next_service_id_);
  w.u64(next_subscription_id_);
  w.b(enabled_);
  w.u64(services_.size());
  for (const auto& [id, desc] : services_) {
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
  services_.clear();
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
    services_.insert_or_assign(id, std::move(desc));
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
    const auto info = world_.sim().pending_event_info(held.renewal);
    if (!info.valid) {
      throw snap::SnapError("jini client save: lease " + std::to_string(id) +
                            " has no pending renewal");
    }
    w.u64(id);
    w.duration(held.lease);
    save_scratch_.clear();
    held.desc.serialize(save_scratch_);
    w.bytes(save_scratch_.data().data(), save_scratch_.size());
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

  registrars_.clear();
  const std::uint64_t n_regs = r.u64();
  for (std::uint64_t i = 0; i < n_regs; ++i) {
    const net::NodeId node = r.u64();
    registrars_[node] = r.time_delta();
  }
  next_token_ = r.u32();
  messages_sent_ = r.u64();
  // Renewal events went with Simulator::clear_pending: dropped, not
  // cancelled.
  held_leases_.clear();
  const std::uint64_t n_held = r.u64();
  for (std::uint64_t i = 0; i < n_held; ++i) {
    const ServiceId id = r.u64();
    HeldRegistration& held = held_leases_[id];
    held.lease = r.duration();
    const std::vector<std::uint8_t> blob = r.bytes();
    net::ByteReader br(std::as_bytes(std::span(blob)));
    held.desc = ServiceDescription::deserialize(br);
    if (!br.ok()) {
      throw snap::SnapError("jini client restore: bad held description");
    }
    const sim::Time when = r.time_delta();
    const std::uint64_t seq = r.u64();
    const std::uint64_t eid = r.u64();
    held.renewal = world_.sim().restore_event(
        when, seq, eid, sim::EventCategory::kDiscovery, make_renewal(id));
  }
}

}  // namespace aroma::disco

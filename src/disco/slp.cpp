#include "disco/slp.hpp"

#include "sim/random.hpp"

namespace aroma::disco {

// ---------------------------------------------------------------------------
// SlpDirectoryAgent

SlpDirectoryAgent::SlpDirectoryAgent(sim::World& world, net::NetStack& stack)
    : SlpDirectoryAgent(world, stack, Params{}) {}

SlpDirectoryAgent::SlpDirectoryAgent(sim::World& world, net::NetStack& stack,
                                     Params params)
    : world_(world), stack_(stack), params_(params), leases_(world) {
  stack_.bind(net::kSlpPort,
              [this](const net::Datagram& dg) { on_datagram(dg); });
  stack_.join_group(net::kDiscoveryGroup);
  advertiser_ = std::make_unique<sim::PeriodicTimer>(
      world_.sim(), params_.advert_interval, [this] { advertise(); });
  advertiser_->start_after(sim::Time::ms(5));
}

SlpDirectoryAgent::~SlpDirectoryAgent() { stack_.unbind(net::kSlpPort); }

void SlpDirectoryAgent::advertise() {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(SlpMsg::kDaAdvert));
  stack_.send_multicast(net::kAnnounceGroup, net::kSlpPort, net::kSlpPort,
                        w.take());
}

void SlpDirectoryAgent::on_datagram(const net::Datagram& dg) {
  net::ByteReader r(dg.data);
  const auto msg = static_cast<SlpMsg>(r.u8());
  if (!r.ok()) return;
  switch (msg) {
    case SlpMsg::kSrvReg: {
      const auto lifetime = sim::Time::ns(static_cast<std::int64_t>(r.u64()));
      ServiceDescription desc = ServiceDescription::deserialize(r);
      if (!r.ok()) return;
      // Re-registration of the same endpoint+type replaces the old entry.
      ServiceId id = 0;
      for (const auto& [sid, s] : services_) {
        if (s.endpoint == desc.endpoint && s.type == desc.type) {
          id = sid;
          break;
        }
      }
      if (id == 0) id = next_id_++;
      desc.id = id;
      services_[id] = std::move(desc);
      const sim::Time granted = std::min(lifetime, params_.max_lifetime);
      leases_.grant(id, granted, [this, id] { services_.erase(id); });
      net::ByteWriter w;
      w.u8(static_cast<std::uint8_t>(SlpMsg::kSrvAck));
      w.u64(id);
      stack_.send(net::Endpoint{dg.src.node, net::kSlpPort}, net::kSlpPort,
                  w.take());
      return;
    }
    case SlpMsg::kSrvRqst: {
      const std::uint32_t token = r.u32();
      const ServiceTemplate tmpl = ServiceTemplate::deserialize(r);
      if (!r.ok()) return;
      net::ByteWriter out;
      out.u8(static_cast<std::uint8_t>(SlpMsg::kSrvRply));
      out.u32(token);
      write_matches(out, tmpl, services_);
      stack_.send(net::Endpoint{dg.src.node, net::kSlpPort}, net::kSlpPort,
                  out.take());
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// SlpServiceAgent

SlpServiceAgent::SlpServiceAgent(sim::World& world, net::NetStack& stack)
    : SlpServiceAgent(world, stack, Params{}) {}

SlpServiceAgent::SlpServiceAgent(sim::World& world, net::NetStack& stack,
                                 Params params)
    : world_(world), stack_(stack), params_(params) {
  stack_.bind(net::kSlpPort,
              [this](const net::Datagram& dg) { on_datagram(dg); });
  stack_.join_group(net::kDiscoveryGroup);
  stack_.join_group(net::kAnnounceGroup);
}

SlpServiceAgent::~SlpServiceAgent() { stack_.unbind(net::kSlpPort); }

void SlpServiceAgent::advertise(ServiceDescription description) {
  advertised_.push_back(std::move(description));
  const std::size_t index = advertised_.size() - 1;
  if (has_da()) register_with_da(advertised_[index]);
  schedule_reregister(index);
}

void SlpServiceAgent::register_with_da(const ServiceDescription& desc) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(SlpMsg::kSrvReg));
  w.u64(static_cast<std::uint64_t>(params_.lifetime.count()));
  desc.serialize(w);
  ++messages_sent_;
  stack_.send(net::Endpoint{da_node_, net::kSlpPort}, net::kSlpPort, w.take());
}

void SlpServiceAgent::schedule_reregister(std::size_t index) {
  const sim::Time delay =
      sim::scale(params_.lifetime, params_.reregister_fraction);
  world_.sim().schedule_in(delay, [this, index,
                                   guard = std::weak_ptr<char>(alive_)] {
    if (guard.expired()) return;
    if (index >= advertised_.size()) return;  // withdrawn
    if (has_da()) register_with_da(advertised_[index]);
    schedule_reregister(index);
  });
}

void SlpServiceAgent::on_datagram(const net::Datagram& dg) {
  net::ByteReader r(dg.data);
  const auto msg = static_cast<SlpMsg>(r.u8());
  if (!r.ok()) return;
  switch (msg) {
    case SlpMsg::kDaAdvert: {
      const bool was_new = da_node_ != dg.src.node;
      da_node_ = dg.src.node;
      if (was_new) {
        for (const auto& desc : advertised_) register_with_da(desc);
      }
      return;
    }
    case SlpMsg::kSrvRqst: {
      // DA-less mode: answer multicast requests for matching services.
      const std::uint32_t token = r.u32();
      const ServiceTemplate tmpl = ServiceTemplate::deserialize(r);
      if (!r.ok()) return;
      std::vector<const ServiceDescription*> matches;
      for (const auto& s : advertised_) {
        if (tmpl.matches(s)) matches.push_back(&s);
      }
      if (matches.empty()) return;
      net::ByteWriter w;
      w.u8(static_cast<std::uint8_t>(SlpMsg::kSrvRply));
      w.u32(token);
      w.u32(static_cast<std::uint32_t>(matches.size()));
      for (const auto* m : matches) m->serialize(w);
      ++messages_sent_;
      stack_.send(net::Endpoint{dg.src.node, net::kSlpPort}, net::kSlpPort,
                  w.take());
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// SlpUserAgent

SlpUserAgent::SlpUserAgent(sim::World& world, net::NetStack& stack)
    : SlpUserAgent(world, stack, Params{}) {}

SlpUserAgent::SlpUserAgent(sim::World& world, net::NetStack& stack,
                           Params params)
    : world_(world), stack_(stack), params_(params) {
  stack_.bind(net::kSlpPort,
              [this](const net::Datagram& dg) { on_datagram(dg); });
  stack_.join_group(net::kAnnounceGroup);
}

SlpUserAgent::~SlpUserAgent() { stack_.unbind(net::kSlpPort); }

void SlpUserAgent::find(const ServiceTemplate& tmpl, FindResult cb) {
  const std::uint32_t token = next_token_++;
  Pending p;
  p.cb = std::move(cb);
  p.multicast = !has_da();
  p.tmpl = tmpl;
  pending_[token] = std::move(p);

  send_request(token, tmpl);
  if (has_da()) {
    // DA replies promptly; time out as a safety net.
    world_.sim().schedule_in(params_.multicast_wait * 3,
                             [this, token, guard = std::weak_ptr<char>(alive_)] {
      if (guard.expired()) return;
      auto it = pending_.find(token);
      if (it == pending_.end()) return;
      auto done = std::move(it->second);
      pending_.erase(it);
      if (done.cb) done.cb(std::move(done.gathered));
    });
  } else if (params_.retries <= 0) {
    // Legacy single-shot: gather replies for one multicast_wait.
    world_.sim().schedule_in(params_.multicast_wait,
                             [this, token, guard = std::weak_ptr<char>(alive_)] {
      if (guard.expired()) return;
      auto it = pending_.find(token);
      if (it == pending_.end()) return;
      auto done = std::move(it->second);
      pending_.erase(it);
      if (done.cb) done.cb(std::move(done.gathered));
    });
  } else {
    arm_retry(token, 0);
  }
}

void SlpUserAgent::send_request(std::uint32_t token,
                                const ServiceTemplate& tmpl) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(SlpMsg::kSrvRqst));
  w.u32(token);
  tmpl.serialize(w);
  ++messages_sent_;
  if (has_da()) {
    stack_.send(net::Endpoint{da_node_, net::kSlpPort}, net::kSlpPort,
                w.take());
  } else {
    stack_.send_multicast(net::kDiscoveryGroup, net::kSlpPort, net::kSlpPort,
                          w.take());
  }
}

sim::Time SlpUserAgent::retry_gap(std::uint32_t token, int attempt) const {
  if (!params_.jitter) return params_.multicast_wait;  // naive fixed spacing
  // Exponential backoff with a counter-based jitter: stateless, seeded,
  // and consuming no Rng draws, so enabling retries perturbs nothing else.
  const sim::Time base = params_.multicast_wait * (1LL << attempt);
  const std::uint64_t h = sim::mix_hash(
      params_.jitter_seed ^ stack_.node_id(),
      (static_cast<std::uint64_t>(token) << 8) |
          static_cast<std::uint64_t>(attempt));
  const double stretch = 1.0 + static_cast<double>(h % 4096) / 8192.0;
  return sim::scale(base, stretch);
}

void SlpUserAgent::arm_retry(std::uint32_t token, int attempt) {
  world_.sim().schedule_in(
      retry_gap(token, attempt), sim::EventCategory::kDiscovery,
      [this, token, attempt, guard = std::weak_ptr<char>(alive_)] {
        if (guard.expired()) return;
        auto it = pending_.find(token);
        if (it == pending_.end()) return;
        // Anything gathered by now answers the find; retransmit only
        // while the request has gone completely unheard.
        if (!it->second.gathered.empty() || attempt >= params_.retries) {
          auto done = std::move(it->second);
          pending_.erase(it);
          if (done.cb) done.cb(std::move(done.gathered));
          return;
        }
        send_request(token, it->second.tmpl);
        arm_retry(token, attempt + 1);
      });
}

void SlpUserAgent::on_datagram(const net::Datagram& dg) {
  net::ByteReader r(dg.data);
  const auto msg = static_cast<SlpMsg>(r.u8());
  if (!r.ok()) return;
  switch (msg) {
    case SlpMsg::kDaAdvert:
      da_node_ = dg.src.node;
      return;
    case SlpMsg::kSrvRply: {
      const std::uint32_t token = r.u32();
      const std::uint32_t n = r.u32();
      auto it = pending_.find(token);
      if (it == pending_.end()) return;
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        it->second.gathered.push_back(ServiceDescription::deserialize(r));
      }
      if (!it->second.multicast) {
        // Unicast DA reply is authoritative: complete immediately.
        auto done = std::move(it->second);
        pending_.erase(it);
        if (done.cb) done.cb(std::move(done.gathered));
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace aroma::disco

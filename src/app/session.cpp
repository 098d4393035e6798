#include "app/session.hpp"

#include "obs/span.hpp"
#include "snap/format.hpp"

namespace aroma::app {

SessionManager::SessionManager(sim::World& world, std::string resource_name)
    : SessionManager(world, std::move(resource_name), Params{}) {}

SessionManager::SessionManager(sim::World& world, std::string resource_name,
                               Params params)
    : world_(world), name_(std::move(resource_name)), params_(params),
      leases_(world) {}

std::optional<SessionToken> SessionManager::acquire(std::uint64_t owner) {
  if (current_) {
    const bool live = params_.gateway ? params_.gateway->active(gw_session_)
                                      : leases_.active(current_->token);
    if (current_->owner == owner && live) {
      if (params_.gateway) {
        params_.gateway->renew(gw_session_, params_.lease);
      } else {
        leases_.renew(current_->token, params_.lease);
      }
      return current_->token;
    }
    ++stats_.rejections;
    if (obs::SpanTracer* t = world_.spans(); t != nullptr && t->enabled()) {
      t->instant(world_.now(), "app.session.hijack_rejected",
                 lpc::Layer::kAbstract, world_.sim().trace_context(),
                 sim::TraceLevel::kWarn, {{"session", name_}});
    }
    return std::nullopt;
  }
  const SessionToken token = next_token_++;
  current_ = Current{token, owner};
  ++stats_.acquisitions;
  if (params_.gateway) {
    gw_session_ =
        params_.gateway->open(owner, params_.lease, [this] { expire(); });
  } else {
    leases_.grant(token, params_.lease, [this] { expire(); });
  }
  if (on_change_) on_change_(owner);
  return token;
}

bool SessionManager::renew(SessionToken token) {
  if (!current_ || current_->token != token) return false;
  ++stats_.renewals;
  if (params_.gateway) return params_.gateway->renew(gw_session_, params_.lease);
  return leases_.renew(token, params_.lease);
}

bool SessionManager::release(SessionToken token) {
  if (!current_ || current_->token != token) return false;
  if (params_.gateway) {
    params_.gateway->close(gw_session_);
  } else {
    leases_.cancel(token);
  }
  current_.reset();
  ++stats_.releases;
  if (on_change_) on_change_(0);
  return true;
}

std::optional<std::uint64_t> SessionManager::owner() const {
  if (!current_) return std::nullopt;
  return current_->owner;
}

bool SessionManager::valid(SessionToken token) const {
  return current_ && current_->token == token;
}

void SessionManager::expire() {
  if (!current_) return;
  current_.reset();
  ++stats_.expirations;
  if (on_change_) on_change_(0);
}

void SessionManager::save(snap::SectionWriter& w) const {
  if (params_.gateway) {
    throw snap::SnapError("session manager '" + name_ +
                          "': gateway-backed sessions are not checkpointable");
  }
  w.u64(stats_.acquisitions);
  w.u64(stats_.rejections);
  w.u64(stats_.releases);
  w.u64(stats_.expirations);
  w.u64(stats_.renewals);
  w.u64(next_token_);
  w.b(current_.has_value());
  if (current_) {
    w.u64(current_->token);
    w.u64(current_->owner);
  }
  leases_.save(w);
}

void SessionManager::restore(snap::SectionReader& r) {
  stats_.acquisitions = r.u64();
  stats_.rejections = r.u64();
  stats_.releases = r.u64();
  stats_.expirations = r.u64();
  stats_.renewals = r.u64();
  next_token_ = r.u64();
  current_.reset();
  if (r.b()) {
    Current c{};
    c.token = r.u64();
    c.owner = r.u64();
    current_ = c;
  }
  // Every lease in this table guards the single current session; its expiry
  // callback is always the manager's own expire().
  leases_.restore(r, [this](std::uint64_t) {
    return [this] { expire(); };
  });
}

}  // namespace aroma::app

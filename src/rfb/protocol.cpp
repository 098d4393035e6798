#include "rfb/protocol.hpp"

#include <algorithm>
#include <cstring>

#include "net/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "snap/format.hpp"

namespace aroma::rfb {

// ---------------------------------------------------------------------------
// RfbServer

RfbServer::RfbServer(sim::World& world, Framebuffer& source,
                     std::shared_ptr<net::StreamConnection> conn)
    : RfbServer(world, source, std::move(conn), Params{}) {}

RfbServer::RfbServer(sim::World& world, Framebuffer& source,
                     std::shared_ptr<net::StreamConnection> conn,
                     Params params)
    : world_(world), source_(source), conn_(std::move(conn)), params_(params),
      scratch_(world.arena()) {
  framer_.set_handler(
      [this](std::span<const std::byte> msg) { on_message(msg); });
  conn_->set_data_handler(
      [this](std::span<const std::byte> data) { framer_.on_bytes(data); });
  if (params_.encoding == Encoding::kCached) {
    last_tile_hash_.assign(static_cast<std::size_t>(source_.tiles_x()) *
                               static_cast<std::size_t>(source_.tiles_y()),
                           0);
  }
  const auto layer = lpc::Layer::kAbstract;
  m_updates_ = obs::counter(world_, "rfb.server.updates_sent", layer);
  m_rects_ = obs::counter(world_, "rfb.server.rects_sent", layer);
  m_bytes_ = obs::counter(world_, "rfb.server.bytes_sent", layer);
  m_tiles_ = obs::counter(world_, "rfb.tiles_encoded", layer);
  m_cache_hits_ = obs::counter(world_, "rfb.cache_hits", layer);
  m_update_bytes_ = obs::hdr(world_, "rfb.server.update_bytes", layer);
}

RfbServer::~RfbServer() {
  // The connection may outlive us inside pending simulator events; make
  // sure late deliveries cannot call back into freed state.
  conn_->set_data_handler({});
  conn_->set_established_handler({});
}

void RfbServer::notify_changed() { maybe_send_update(); }

void RfbServer::on_message(std::span<const std::byte> msg) {
  net::ByteReader r(msg);
  const auto type = static_cast<RfbMsg>(r.u8());
  if (!r.ok()) return;
  switch (type) {
    case RfbMsg::kClientInit: {
      net::ByteWriter w;
      w.u8(static_cast<std::uint8_t>(RfbMsg::kServerInit));
      w.u32(static_cast<std::uint32_t>(source_.width()));
      w.u32(static_cast<std::uint32_t>(source_.height()));
      conn_->send(MessageFramer::frame(w.data()));
      return;
    }
    case RfbMsg::kUpdateRequest: {
      const bool incremental = r.u8() != 0;
      update_pending_ = true;
      if (!incremental) full_requested_ = true;
      maybe_send_update();
      return;
    }
    default:
      return;
  }
}

void RfbServer::maybe_send_update() {
  if (!update_pending_ || encoding_in_progress_) return;
  if (params_.encoding == Encoding::kCached) {
    maybe_send_cached();
    return;
  }
  std::vector<RectRegion> rects;
  if (full_requested_) {
    rects.push_back(source_.bounds());
    full_requested_ = false;
    source_.clear_damage();
  } else if (source_.has_damage()) {
    rects = source_.damage();
    source_.clear_damage();
  } else {
    return;  // stay pending until something changes
  }
  update_pending_ = false;
  send_update(rects);
}

void RfbServer::send_update(const std::vector<RectRegion>& rects) {
  // Covers encode + the scheduled completion event (which inherits this
  // span as its causal context, so the stream send parents here too).
  obs::ScopedSpan span(world_, "rfb.update", lpc::Layer::kAbstract);
  // Encode now (content snapshot), charge simulated CPU, then transmit.
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RfbMsg::kUpdate));
  w.u8(static_cast<std::uint8_t>(params_.encoding));
  w.u16(static_cast<std::uint16_t>(rects.size()));
  std::uint64_t pixels = 0;
  for (const RectRegion& r : rects) {
    encode_rect_into(source_, r, params_.encoding, scratch_);
    w.u16(static_cast<std::uint16_t>(r.x));
    w.u16(static_cast<std::uint16_t>(r.y));
    w.u16(static_cast<std::uint16_t>(r.w));
    w.u16(static_cast<std::uint16_t>(r.h));
    w.bytes(std::span<const std::byte>(scratch_.out.data(),
                                       scratch_.out.size()));
    pixels += static_cast<std::uint64_t>(r.area());
    ++stats_.rects_sent;
    if (m_rects_) m_rects_->add();
  }
  const double encode_s =
      static_cast<double>(pixels) * encode_cost_per_pixel(params_.encoding) /
      (params_.cpu_mips * 1e6);
  stats_.pixels_encoded += pixels;
  span.annotate("bytes", std::to_string(w.data().size() + 4));
  transmit(w, encode_s);
}

void RfbServer::maybe_send_cached() {
  if (full_requested_) {
    // A full refresh resets the per-position last-sent hashes (the viewer
    // may be new) but keeps the cache mirror: references into surviving
    // client state are still valid and exactly what makes refreshes cheap.
    std::fill(last_tile_hash_.begin(), last_tile_hash_.end(), 0);
    source_.mark_damaged(source_.bounds());
    full_requested_ = false;
  }
  if (source_.dirty_tile_count() == 0) return;  // stay pending
  source_.collect_dirty_tiles(dirty_tiles_);
  source_.clear_damage();

  obs::ScopedSpan span(world_, "rfb.update", lpc::Layer::kAbstract);
  const CachedEncodeStats cs = encode_tiles_cached(
      source_, dirty_tiles_, cache_mirror_, last_tile_hash_, scratch_);
  stats_.tiles_encoded += cs.tiles_sent;
  stats_.cache_hits += cs.cache_refs;
  stats_.tiles_skipped += cs.tiles_skipped;
  stats_.pixels_encoded += cs.pixels_hashed;
  if (m_tiles_) m_tiles_->add(cs.tiles_sent);
  if (m_cache_hits_) m_cache_hits_->add(cs.cache_refs);
  if (cs.tiles_sent + cs.cache_refs == 0) {
    // Every damaged tile already matches the replica; nothing to send.
    // update_pending_ stays set so real damage answers the request.
    return;
  }
  // One bounds rect carries the whole tile-set payload.
  const RectRegion r = source_.bounds();
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RfbMsg::kUpdate));
  w.u8(static_cast<std::uint8_t>(params_.encoding));
  w.u16(1);
  w.u16(static_cast<std::uint16_t>(r.x));
  w.u16(static_cast<std::uint16_t>(r.y));
  w.u16(static_cast<std::uint16_t>(r.w));
  w.u16(static_cast<std::uint16_t>(r.h));
  w.bytes(std::span<const std::byte>(scratch_.out.data(),
                                     scratch_.out.size()));
  ++stats_.rects_sent;
  if (m_rects_) m_rects_->add();
  const double encode_s = static_cast<double>(cs.pixels_hashed) *
                          encode_cost_per_pixel(params_.encoding) /
                          (params_.cpu_mips * 1e6);
  span.annotate("bytes", std::to_string(w.data().size() + 4));
  transmit(w, encode_s);
}

void RfbServer::transmit(net::ByteWriter& w, double encode_s) {
  stats_.encode_seconds += encode_s;
  ++stats_.updates_sent;
  update_pending_ = false;
  auto framed = MessageFramer::frame(w.data());
  stats_.bytes_sent += framed.size();
  if (m_updates_) m_updates_->add();
  if (m_bytes_) m_bytes_->add(framed.size());
  if (m_update_bytes_) m_update_bytes_->record(framed.size());
  encoding_in_progress_ = true;
  world_.sim().schedule_in(sim::Time::sec(encode_s), sim::EventCategory::kRfb,
                           [this, framed = std::move(framed)]() mutable {
                             encoding_in_progress_ = false;
                             conn_->send(std::move(framed));
                             maybe_send_update();
                           });
}

// ---------------------------------------------------------------------------
// RfbClient

double RfbClientStats::fps(sim::Time now) const {
  if (updates_received < 2) return 0.0;
  const double span = (now - first_update).seconds();
  return span > 0.0 ? static_cast<double>(updates_received - 1) / span : 0.0;
}

RfbClient::RfbClient(sim::World& world,
                     std::shared_ptr<net::StreamConnection> conn)
    : world_(world), conn_(std::move(conn)), scratch_(world.arena()) {
  framer_.set_handler(
      [this](std::span<const std::byte> msg) { on_message(msg); });
  conn_->set_data_handler(
      [this](std::span<const std::byte> data) { framer_.on_bytes(data); });
  m_decode_errors_ =
      obs::counter(world_, "rfb.client.decode_errors", lpc::Layer::kAbstract);
  m_update_latency_ =
      obs::hdr(world_, "rfb.client.update_latency_us", lpc::Layer::kAbstract);
}

RfbClient::~RfbClient() {
  conn_->set_data_handler({});
  conn_->set_established_handler({});
}

void RfbClient::start() {
  auto hello = [this] {
    net::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(RfbMsg::kClientInit));
    conn_->send(MessageFramer::frame(w.data()));
  };
  if (conn_->established()) {
    hello();
  } else {
    conn_->set_established_handler(hello);
  }
}

void RfbClient::request_update(bool incremental) {
  net::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RfbMsg::kUpdateRequest));
  w.u8(incremental ? 1 : 0);
  conn_->send(MessageFramer::frame(w.data()));
}

void RfbClient::on_message(std::span<const std::byte> msg) {
  net::ByteReader r(msg);
  const auto type = static_cast<RfbMsg>(r.u8());
  if (!r.ok()) return;
  switch (type) {
    case RfbMsg::kServerInit: {
      const int w = static_cast<int>(r.u32());
      const int h = static_cast<int>(r.u32());
      if (!r.ok()) return;
      replica_ = std::make_unique<Framebuffer>(w, h);
      cache_.clear();
      request_update(/*incremental=*/false);
      return;
    }
    case RfbMsg::kUpdate: {
      if (!replica_) return;
      const auto enc = static_cast<Encoding>(r.u8());
      const std::uint16_t nrects = r.u16();
      for (std::uint16_t i = 0; i < nrects && r.ok(); ++i) {
        RectRegion rect;
        rect.x = r.u16();
        rect.y = r.u16();
        rect.w = r.u16();
        rect.h = r.u16();
        const auto payload = r.bytes();
        if (!r.ok()) break;
        const bool ok =
            enc == Encoding::kCached
                ? decode_tiles_cached(*replica_, cache_, payload, scratch_)
                : decode_rect(*replica_, rect, enc, payload);
        if (!ok) {
          ++stats_.decode_errors;
          if (m_decode_errors_) m_decode_errors_->add();
        }
      }
      stats_.bytes_received += msg.size() + 4;
      const sim::Time now = world_.now();
      // End-to-end frame delivery latency: the server's "rfb.update" span is
      // an ancestor of the event delivering these bytes (trace contexts
      // propagate through scheduled events), so its start stamps the send.
      if (m_update_latency_ != nullptr) {
        if (const obs::SpanTracer* t = world_.spans()) {
          for (const obs::SpanRecord* rec :
               t->ancestry(world_.sim().trace_context())) {
            if (rec->name == "rfb.update") {
              m_update_latency_->record(static_cast<std::uint64_t>(
                  (now - rec->start).count() / 1000));
              break;
            }
          }
        }
      }
      if (stats_.updates_received == 0) {
        stats_.first_update = now;
      } else {
        stats_.update_interval_s.add((now - stats_.last_update).seconds());
      }
      stats_.last_update = now;
      ++stats_.updates_received;
      replica_->clear_damage();
      request_update(/*incremental=*/true);
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore

bool RfbServer::snap_quiescent(std::string* why) const {
  if (encoding_in_progress_) {
    if (why) *why = "rfb server: encode in progress";
    return false;
  }
  if (framer_.buffered() != 0) {
    if (why) *why = "rfb server: partial message buffered";
    return false;
  }
  return true;
}

void RfbServer::save(snap::SectionWriter& w) const {
  w.b(update_pending_);
  w.b(full_requested_);
  w.u64(stats_.updates_sent);
  w.u64(stats_.rects_sent);
  w.u64(stats_.bytes_sent);
  w.u64(stats_.pixels_encoded);
  w.f64(stats_.encode_seconds);
  w.u64(stats_.tiles_encoded);
  w.u64(stats_.cache_hits);
  w.u64(stats_.tiles_skipped);
}

void RfbServer::restore(snap::SectionReader& r) {
  encoding_in_progress_ = false;
  framer_.reset();
  update_pending_ = r.b();
  full_requested_ = r.b();
  stats_.updates_sent = r.u64();
  stats_.rects_sent = r.u64();
  stats_.bytes_sent = r.u64();
  stats_.pixels_encoded = r.u64();
  stats_.encode_seconds = r.f64();
  stats_.tiles_encoded = r.u64();
  stats_.cache_hits = r.u64();
  stats_.tiles_skipped = r.u64();
}

void RfbServer::save_cache(snap::SectionWriter& w) const {
  cache_mirror_.save(w);
  w.u64(last_tile_hash_.size());
  for (std::uint64_t h : last_tile_hash_) w.u64(h);
}

void RfbServer::restore_cache(snap::SectionReader& r) {
  cache_mirror_.restore(r);
  const std::uint64_t n = r.u64();
  if (n != last_tile_hash_.size()) {
    throw snap::SnapError("rfb server restore: last-sent table size");
  }
  for (std::uint64_t& h : last_tile_hash_) h = r.u64();
}

bool RfbClient::snap_quiescent(std::string* why) const {
  if (framer_.buffered() != 0) {
    if (why) *why = "rfb client: partial message buffered";
    return false;
  }
  return true;
}

void RfbClient::save(snap::SectionWriter& w) const {
  w.u64(stats_.updates_received);
  w.u64(stats_.bytes_received);
  w.u64(stats_.decode_errors);
  const sim::Accumulator& acc = stats_.update_interval_s;
  w.u64(acc.count());
  w.f64(acc.mean());
  w.f64(acc.m2());
  w.f64(acc.min());
  w.f64(acc.max());
  w.time_delta(stats_.first_update);
  w.time_delta(stats_.last_update);
}

void RfbClient::restore(snap::SectionReader& r) {
  framer_.reset();
  stats_.updates_received = r.u64();
  stats_.bytes_received = r.u64();
  stats_.decode_errors = r.u64();
  const std::uint64_t n = r.u64();
  const double mean = r.f64();
  const double m2 = r.f64();
  const double mn = r.f64();
  const double mx = r.f64();
  stats_.update_interval_s.load(n, mean, m2, mn, mx);
  stats_.first_update = r.time_delta();
  stats_.last_update = r.time_delta();
}

void RfbClient::save_cache(snap::SectionWriter& w) const {
  w.b(replica_ != nullptr);
  if (replica_) replica_->save(w);
  cache_.save(w);
}

void RfbClient::restore_cache(snap::SectionReader& r) {
  const bool has_replica = r.b();
  if (has_replica && !replica_) {
    throw snap::SnapError("rfb client restore: replica not initialized");
  }
  if (!has_replica) {
    replica_.reset();
    cache_.restore(r);
    return;
  }
  replica_->restore(r);
  cache_.restore(r);
}

}  // namespace aroma::rfb

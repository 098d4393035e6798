// The remote framebuffer protocol (VNC substitute) over reliable streams.
//
// Client-pull flow as in RFB: the viewer sends an update request, the
// server replies with encoded rects for the damaged region, the viewer
// immediately requests again. This self-paces the frame rate to whatever
// the link and the encoder can sustain — which is exactly the mechanism
// behind the paper's observation that wireless bandwidth "prevents us from
// displaying rapid animation."
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/framer.hpp"
#include "net/stream.hpp"
#include "rfb/cache.hpp"
#include "rfb/encoding.hpp"
#include "rfb/framebuffer.hpp"
#include "sim/stats.hpp"
#include "sim/world.hpp"

namespace aroma::obs {
class Counter;
class HdrHistogram;
}  // namespace aroma::obs

namespace aroma::net {
class ByteWriter;
}  // namespace aroma::net

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::rfb {

using MessageFramer = net::MessageFramer;

enum class RfbMsg : std::uint8_t {
  kClientInit = 1,   // viewer hello
  kServerInit,       // width, height
  kUpdateRequest,    // u8 incremental
  kUpdate,           // rect list
};

struct RfbServerStats {
  std::uint64_t updates_sent = 0;
  std::uint64_t rects_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t pixels_encoded = 0;
  double encode_seconds = 0.0;   // simulated encoder CPU time
  // Cached-encoding breakdown (zero unless Encoding::kCached).
  std::uint64_t tiles_encoded = 0;   // literal tile records sent
  std::uint64_t cache_hits = 0;      // 8-byte reference records sent
  std::uint64_t tiles_skipped = 0;   // re-damaged but content-unchanged
};

/// Serves one viewer from a source framebuffer.
///
/// Edge-driven: the server schedules nothing while idle. It tries to send an
/// update on exactly three edges -- a viewer's update request arriving, the
/// previous update's encode completing, and notify_changed() -- and sends
/// one when a request is pending, no encode is in flight and the source has
/// damage (or the request asked for a full frame). Whoever mutates the
/// source must call notify_changed() after the mutation; damage that is not
/// notified waits for the next request or encode completion.
class RfbServer {
 public:
  struct Params {
    Encoding encoding = Encoding::kTiled;
    double cpu_mips = 120.0;          // encoder host CPU (Aroma adapter)
    std::size_t max_update_bytes = 512 * 1024;
  };

  RfbServer(sim::World& world, Framebuffer& source,
            std::shared_ptr<net::StreamConnection> conn);
  RfbServer(sim::World& world, Framebuffer& source,
            std::shared_ptr<net::StreamConnection> conn, Params params);
  ~RfbServer();
  RfbServer(const RfbServer&) = delete;
  RfbServer& operator=(const RfbServer&) = delete;

  /// Call after every mutation of the source framebuffer: answers a pending
  /// request with the new damage now, or leaves it for the next request or
  /// encode completion.
  void notify_changed();

  const RfbServerStats& stats() const { return stats_; }
  bool viewer_connected() const { return conn_ && conn_->established(); }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // The encode-completion one-shot captures the framed update bytes, so the
  // server is only checkpointable between encodes. Control state (request
  // flags, stats) and the bulky cached-encoder state (cache mirror +
  // per-tile last-sent hashes) serialize into separate sections (RFBC and
  // PIXL in a scenario checkpoint).
  bool snap_quiescent(std::string* why) const;
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);
  void save_cache(snap::SectionWriter& w) const;
  void restore_cache(snap::SectionReader& r);

 private:
  void on_message(std::span<const std::byte> msg);
  void maybe_send_update();
  void send_update(const std::vector<RectRegion>& rects);
  void maybe_send_cached();
  void transmit(net::ByteWriter& w, double encode_s);

  sim::World& world_;
  Framebuffer& source_;
  std::shared_ptr<net::StreamConnection> conn_;
  Params params_;
  MessageFramer framer_;
  bool update_pending_ = false;     // viewer asked, nothing damaged yet
  bool full_requested_ = false;
  bool encoding_in_progress_ = false;
  RfbServerStats stats_;

  // Encoder state. The scratch draws from the world arena so steady-state
  // encoding allocates nothing; the cache mirror and per-tile last-sent
  // hashes exist only for Encoding::kCached (empty otherwise).
  EncodeScratch scratch_;
  TileCache cache_mirror_;                    // hashes only, no pixels
  std::vector<std::uint64_t> last_tile_hash_; // 0 = never sent
  std::vector<TileCoord> dirty_tiles_;

  // Telemetry handles; null when the world has no registry attached.
  obs::Counter* m_updates_ = nullptr;
  obs::Counter* m_rects_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_tiles_ = nullptr;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::HdrHistogram* m_update_bytes_ = nullptr;
};

struct RfbClientStats {
  std::uint64_t updates_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t decode_errors = 0;
  sim::Accumulator update_interval_s;
  double fps(sim::Time now) const;
  sim::Time first_update;
  sim::Time last_update;
};

/// The viewer: maintains a replica framebuffer.
class RfbClient {
 public:
  RfbClient(sim::World& world, std::shared_ptr<net::StreamConnection> conn);
  ~RfbClient();
  RfbClient(const RfbClient&) = delete;
  RfbClient& operator=(const RfbClient&) = delete;

  /// Starts the session (sends ClientInit once the stream establishes).
  void start();

  const Framebuffer& replica() const { return *replica_; }
  bool initialized() const { return replica_ != nullptr; }
  const RfbClientStats& stats() const { return stats_; }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  bool snap_quiescent(std::string* why) const;
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);
  void save_cache(snap::SectionWriter& w) const;
  void restore_cache(snap::SectionReader& r);

 private:
  void on_message(std::span<const std::byte> msg);
  void request_update(bool incremental);

  sim::World& world_;
  std::shared_ptr<net::StreamConnection> conn_;
  MessageFramer framer_;
  std::unique_ptr<Framebuffer> replica_;
  TileCache cache_;        // cached-encoding tile store (reset per session)
  EncodeScratch scratch_;  // decode staging, capacity kept across updates
  RfbClientStats stats_;
  obs::Counter* m_decode_errors_ = nullptr;
  obs::HdrHistogram* m_update_latency_ = nullptr;  // server send -> decode, µs
};

}  // namespace aroma::rfb

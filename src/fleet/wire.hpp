// The fleet control plane's wire protocol: length-prefixed binary frames
// over a pipe/socketpair between the coordinator and its worker processes.
//
// Framing is deliberately dumb: a little-endian u32 payload length, then the
// payload — u16 message type, u16 flags, type-specific body. Every
// primitive is explicitly little-endian (the same rule src/snap uses), so a
// frame means the same thing on any host; the *handshake* is where
// incompatibilities are rejected — a worker announces its protocol version,
// its snap blob format version, and its native endianness, and the
// coordinator refuses the pairing before a single checkpoint blob is ever
// shipped (a version/endianness mismatch must fail the handshake, not
// surface later as a blob parse error mid-migration).
//
// Forward compatibility: a receiver that does not recognize a frame's type
// skips it when the kIgnorable flag is set and treats it as a protocol
// error otherwise — new optional message kinds can be added without
// breaking old peers.
//
// Channel owns reusable tx/rx scratch buffers: steady-state control-plane
// traffic (heartbeats, checkpoint streams) performs zero heap allocations
// once the buffers have warmed to their high-water capacity. fleet_bench's
// zero_alloc gate asserts it for a room shard's checkpoint stream
// (ScenarioInstance::checkpoint_into -> SaveScratch -> Channel::send).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "snap/format.hpp"

namespace aroma::fleet {

/// Any control-plane protocol violation: truncated frame, oversized frame,
/// unknown non-ignorable message type, handshake mismatch, or a body that
/// does not parse.
class FleetError : public std::runtime_error {
 public:
  explicit FleetError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kWireMagic = 0x544c4641u;  // "AFLT"
/// 2: room shards run a compiled scenario shipped once per worker
/// (kScenario / kScenarioAck).
/// 3: one shard kind, a room of that scenario; ShardSpec is shard id,
/// seed, cadence and telemetry flag.
inline constexpr std::uint16_t kProtocolVersion = 3;
/// Frames larger than this are a protocol error, not an allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Native byte order, as announced in the handshake. Checkpoint payloads
/// are little-endian on the wire regardless, but rejecting a mixed-order
/// pairing up front keeps "blob parsed on the wrong kind of host" out of
/// the failure model entirely.
enum class Endianness : std::uint8_t { kLittle = 1, kBig = 2 };

inline Endianness host_endianness() {
  const std::uint16_t probe = 0x0102;
  return (*reinterpret_cast<const std::uint8_t*>(&probe) == 0x02)
             ? Endianness::kLittle
             : Endianness::kBig;
}

enum class MsgType : std::uint16_t {
  kHello = 1,       // worker -> coord: version/endianness announcement
  kHelloAck = 2,    // coord -> worker: handshake accepted
  kReject = 3,      // coord -> worker: handshake refused (reason string)
  kAssign = 4,      // coord -> worker: own this shard
  kRun = 5,         // coord -> worker: start executing assigned shards
  kCheckpoint = 6,  // worker -> coord: cadenced checkpoint blob for a shard
  kResult = 7,      // worker -> coord: shard finished (fingerprint, metrics)
  kMigrateOut = 8,  // coord -> worker: quiesce shard, emit blob, release it
  kMigrated = 9,    // worker -> coord: the migration blob
  kRestore = 10,    // coord -> worker: adopt shard from blob (or fresh)
  kRestored = 11,   // worker -> coord: shard adopted and resuming
  kHeartbeat = 12,  // worker -> coord: liveness + progress
  kShutdown = 13,   // coord -> worker: finish up and exit
  kBye = 14,        // worker -> coord: clean-exit acknowledgement
  kKill = 15,       // coord -> worker: fault injection (u8 KillMode)
  // Flow control: a worker pauses after streaming a checkpoint until the
  // coordinator acknowledges it. One blob in flight per worker bounds
  // socket buffering, and fault plans keyed on "the Nth checkpoint"
  // (migrations, kills) land deterministically — the shard cannot race
  // ahead of the decision.
  kCheckpointAck = 16,  // coord -> worker
  // Every shard is a room of one compiled scenario. The coordinator ships
  // its AROMSCEN blob once per worker, after the handshake and before any
  // kAssign; the worker decodes it (scn::decode rejects damage with a typed error) and
  // answers ok, or not-ok with the decoder's reason — in which case the
  // coordinator fails the run before a single shard is assigned.
  kScenario = 17,     // coord -> worker: the AROMSCEN blob
  kScenarioAck = 18,  // worker -> coord: u8 ok, str reason
};

/// Frame flag: receivers that do not recognize the type may skip the frame.
inline constexpr std::uint16_t kIgnorable = 1u << 0;

/// Fault-injection modes for kKill. Any other mode byte is a protocol
/// error: the worker exits nonzero rather than guessing.
enum class KillMode : std::uint8_t {
  kExit = 0,  // _exit immediately: coordinator sees EOF
  kHang = 1,  // stop responding, keep the fd open: heartbeat timeout path
};

// ---------------------------------------------------------------------------
// Body encoding: little-endian primitives into a caller-owned buffer, so
// Channel can reuse one scratch vector for every outgoing frame.

class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
    out_.insert(out_.end(), p, p + s.size());
  }
  void bytes(std::span<const std::uint8_t> b) {
    u64(b.size());
    out_.insert(out_.end(), b.begin(), b.end());
  }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t>& out_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(le<std::uint64_t>()); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  /// Zero-copy view into the frame body; valid only until the channel's
  /// next recv call.
  std::span<const std::uint8_t> bytes() {
    const std::uint64_t n = u64();
    need(n);
    const std::span<const std::uint8_t> b = data_.subspan(pos_, n);
    pos_ += static_cast<std::size_t>(n);
    return b;
  }
  void expect_end() const {
    if (pos_ != data_.size()) {
      throw FleetError("frame body has " + std::to_string(data_.size() - pos_) +
                       " unconsumed trailing bytes");
    }
  }

 private:
  template <typename T>
  T le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }
  void need(std::uint64_t n) const {
    if (n > data_.size() - pos_) {
      throw FleetError("frame body truncated (need " + std::to_string(n) +
                       " bytes, have " + std::to_string(data_.size() - pos_) +
                       ")");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Handshake messages.

struct Hello {
  std::uint32_t magic = kWireMagic;
  std::uint16_t protocol = kProtocolVersion;
  std::uint32_t snap_version = snap::kFormatVersion;
  Endianness endianness = host_endianness();
  std::uint32_t pid = 0;

  void encode(WireWriter& w) const {
    w.u32(magic);
    w.u16(protocol);
    w.u32(snap_version);
    w.u8(static_cast<std::uint8_t>(endianness));
    w.u32(pid);
  }
  static Hello decode(WireReader& r) {
    Hello h;
    h.magic = r.u32();
    h.protocol = r.u16();
    h.snap_version = r.u32();
    h.endianness = static_cast<Endianness>(r.u8());
    h.pid = r.u32();
    return h;
  }
};

/// Validates a worker's announcement against this process. Returns an empty
/// string when compatible; otherwise the rejection reason. Version and
/// endianness mismatches are refused HERE — never discovered later when a
/// migrated checkpoint blob fails to parse on the receiving worker.
std::string validate_hello(const Hello& hello);

/// CLOCK_MONOTONIC in nanoseconds. Heartbeat pacing, death detection, and
/// latency measurement only — wall time never feeds simulation state.
std::int64_t monotonic_ns();

/// One shard assignment, as carried by kAssign and kRestore: shard
/// `shard_id` of the shipped scenario, a scn::ScenarioInstance.
struct ShardSpec {
  std::uint64_t shard_id = 0;
  std::uint64_t seed = 0;
  std::int64_t cadence_ns = 0;       // 0: no cadenced checkpoints
  bool telemetry = false;

  void encode(WireWriter& w) const {
    w.u64(shard_id);
    w.u64(seed);
    w.i64(cadence_ns);
    w.u8(telemetry ? 1 : 0);
  }
  static ShardSpec decode(WireReader& r) {
    ShardSpec s;
    s.shard_id = r.u64();
    s.seed = r.u64();
    s.cadence_ns = r.i64();
    s.telemetry = r.u8() != 0;
    return s;
  }
};

// ---------------------------------------------------------------------------
// Channel: framed send/recv over one fd, with reusable scratch buffers.

/// Outcome of a recv attempt.
enum class RecvStatus : std::uint8_t {
  kFrame,    // a complete frame was decoded
  kTimeout,  // nothing arrived within the deadline
  kEof,      // peer closed; any partial frame in flight is reported via
             // partial_bytes() — a mid-frame EOF (worker died while
             // streaming a checkpoint) must never wedge the coordinator
};

struct Frame {
  MsgType type = MsgType::kHeartbeat;
  std::uint16_t flags = 0;
  std::span<const std::uint8_t> body;  // valid until the next recv call
};

class Channel {
 public:
  explicit Channel(int fd) : fd_(fd) {}
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  Channel(Channel&& other) noexcept;

  int fd() const { return fd_; }
  /// Closes the fd early (the destructor also closes it).
  void close();

  /// Frames and writes one message. `body` is appended after the type/flags
  /// header. Returns false when the peer is gone (EPIPE/ECONNRESET —
  /// reported, never raised as SIGPIPE); throws FleetError on any other
  /// write failure.
  bool send(MsgType type, std::uint16_t flags,
            std::span<const std::uint8_t> body);

  /// Convenience: build the body into the reusable tx scratch, then send.
  /// Usage: chan.send(type, [&](WireWriter& w) { ... });
  template <typename Fn>
    requires std::invocable<Fn&, WireWriter&>
  bool send(MsgType type, Fn&& build, std::uint16_t flags = 0) {
    body_scratch_.clear();
    WireWriter w(body_scratch_);
    build(w);
    return send(type, flags, body_scratch_);
  }

  /// Attempts to read one complete frame. timeout_ms < 0 blocks, 0 polls.
  /// Short reads are recovered transparently: partial frames accumulate in
  /// the rx buffer across calls until the length prefix is satisfied.
  RecvStatus recv(Frame& out, int timeout_ms);

  /// Bytes of an incomplete frame buffered when EOF was observed.
  std::size_t partial_bytes() const { return rx_.size() - rx_consumed_; }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }

 private:
  /// Drops consumed bytes once they dominate the buffer, so rx_ capacity
  /// stays at the high-water frame size instead of growing forever.
  void compact();

  int fd_;
  std::vector<std::uint8_t> tx_;            // framed outgoing bytes
  std::vector<std::uint8_t> body_scratch_;  // body under construction
  std::vector<std::uint8_t> rx_;            // raw incoming bytes
  std::size_t rx_consumed_ = 0;             // bytes of rx_ already delivered
  bool eof_ = false;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
};

}  // namespace aroma::fleet

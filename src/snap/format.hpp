// The snapshot wire format: a versioned, sectioned, CRC-checked container.
//
// A checkpoint is a flat byte blob:
//
//   [8]  magic "AROMSNAP"
//   [4]  format version (little-endian u32, currently 4)
//   [4]  section count
//   then per section:
//   [4]  tag (a four-character code, e.g. 'SIM!')
//   [4]  flags (bit 0 = optional: readers may skip an unknown optional
//        section; an unknown *required* section is a hard error)
//   [8]  payload length
//   [4]  CRC32 of the payload
//   [n]  payload
//
// All primitives are little-endian regardless of host order, so blobs are
// portable across the fleet. Every sim::Time field inside a payload is
// written as a signed delta against the capture instant (`SectionWriter::
// now`) and read back against the restore instant (`SectionReader::now`);
// restoring with a later `now` therefore shifts every deadline, timestamp,
// and pending-event time forward by the same gap — the rebasing rule that
// keeps leases from mass-expiring after a pause (see DESIGN.md).
//
// This header is deliberately header-only and dependency-free (sim/time.hpp
// only), so any layer — sim included — can implement save()/restore()
// without linking against the snap library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace aroma::snap {

/// Any structural problem with a snapshot blob: truncation, bad magic,
/// unsupported version, CRC mismatch, unknown required section, or a
/// payload that does not parse. Restores must be all-or-nothing, so this
/// is thrown (never swallowed) and callers count it in snap.restore_errors.
class SnapError : public std::runtime_error {
 public:
  explicit SnapError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr char kMagic[8] = {'A', 'R', 'O', 'M', 'S', 'N', 'A', 'P'};
/// 4: OBSM lost the fixed-bin histogram kind and OBSS its enabled byte.
inline constexpr std::uint32_t kFormatVersion = 4;

/// Section flag: readers that do not recognize the tag may skip it.
inline constexpr std::uint32_t kSectionOptional = 1u << 0;

/// Four-character section tag, e.g. tag4("SIM!").
constexpr std::uint32_t tag4(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

inline std::string tag_name(std::uint32_t tag) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    s[static_cast<std::size_t>(i)] = (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return s;
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
inline std::uint32_t crc32(const void* data, std::size_t n) {
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0xEDB88320u : 0u);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xff];
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Section payload encoding.

/// Appends little-endian primitives to one section's payload. `now` is the
/// capture instant every Time field is rebased against.
class SectionWriter {
 public:
  explicit SectionWriter(sim::Time now) : now_(now) {}

  /// Buffer-reuse form: adopts `buf`'s capacity (contents are discarded).
  /// Serializing into a warmed buffer performs zero heap allocations — the
  /// fleet control plane streams checkpoints through recycled scratch this
  /// way. Recover the buffer afterwards with take().
  SectionWriter(sim::Time now, std::vector<std::uint8_t>&& buf)
      : now_(now), out_(std::move(buf)) {
    out_.clear();
  }

  sim::Time now() const { return now_; }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    le(bits);
  }
  /// A Time as a signed delta against the capture instant (rebasing rule).
  void time_delta(sim::Time t) { i64((t - now_).count()); }
  /// A Time span/duration, written verbatim (never rebased).
  void duration(sim::Time d) { i64(d.count()); }
  void str(const std::string& s) {
    u64(s.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
    out_.insert(out_.end(), p, p + s.size());
  }
  void bytes(const void* p, std::size_t n) {
    u64(n);
    const auto* q = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), q, q + n);
  }

  const std::vector<std::uint8_t>& payload() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  sim::Time now_;
  std::vector<std::uint8_t> out_;
};

/// Reads one section's payload; underflow throws SnapError. `now` is the
/// restore instant Time deltas are rebased onto.
class SectionReader {
 public:
  SectionReader(std::span<const std::uint8_t> data, sim::Time now)
      : data_(data), now_(now) {}

  sim::Time now() const { return now_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// Reads a u64 entry count. Each entry takes at least `min_bytes`, so a
  /// count the rest of the payload cannot hold is rejected before it sizes
  /// a container.
  std::uint64_t entry_count(std::size_t min_bytes, const char* what) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_bytes) {
      throw SnapError(std::string(what) + " count " + std::to_string(n) +
                      " exceeds " + std::to_string(remaining()) +
                      " remaining bytes");
    }
    return n;
  }

  std::uint8_t u8() { return take_byte(); }
  bool b() { return u8() != 0; }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(le<std::uint64_t>()); }
  double f64() {
    const std::uint64_t bits = le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  sim::Time time_delta() { return now_ + sim::Time::ns(i64()); }
  sim::Time duration() { return sim::Time::ns(i64()); }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint64_t n = u64();
    need(n);
    std::vector<std::uint8_t> v(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  /// Restores must consume their section exactly; trailing garbage means
  /// the payload and the reader disagree about the schema.
  void expect_end() const {
    if (pos_ != data_.size()) {
      throw SnapError("section payload has " +
                      std::to_string(data_.size() - pos_) +
                      " unconsumed trailing bytes");
    }
  }

 private:
  std::uint8_t take_byte() {
    need(1);
    return data_[pos_++];
  }
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
      throw SnapError("section payload truncated (need " + std::to_string(n) +
                      " bytes, have " + std::to_string(data_.size() - pos_) +
                      ")");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  sim::Time now_;
};

// ---------------------------------------------------------------------------
// Container assembly and parsing.

struct Section {
  std::uint32_t tag = 0;
  std::uint32_t flags = 0;
  std::vector<std::uint8_t> payload;
};

namespace detail {
inline void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
}  // namespace detail

/// Appends the container header (magic, version, section count) to `out`.
/// With put_section(), the only writer of the container framing: pushes
/// into `out`, so a warmed buffer takes both without allocating.
inline void put_header(std::vector<std::uint8_t>& out, const char (&magic)[8],
                       std::uint32_t version, std::uint32_t count) {
  for (const char c : magic) out.push_back(static_cast<std::uint8_t>(c));
  detail::put32(out, version);
  detail::put32(out, count);
}

/// Appends one section-table entry (tag, flags, length, CRC) and its
/// payload to `out`.
inline void put_section(std::vector<std::uint8_t>& out, std::uint32_t tag,
                        std::uint32_t flags,
                        std::span<const std::uint8_t> payload) {
  detail::put32(out, tag);
  detail::put32(out, flags);
  detail::put64(out, payload.size());
  detail::put32(out, crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

/// Assembles a checkpoint blob from sections.
class SnapWriter {
 public:
  void add(std::uint32_t tag, std::uint32_t flags,
           std::vector<std::uint8_t> payload) {
    sections_.push_back(Section{tag, flags, std::move(payload)});
  }

  std::vector<std::uint8_t> finish() const { return finish(kMagic, kFormatVersion); }

  /// Container assembly under a foreign identity: the same section table,
  /// CRC, and flag discipline, but a caller-chosen magic and version. Other
  /// sectioned formats (the scn scenario blob) reuse the container this way
  /// without pretending to be checkpoints.
  std::vector<std::uint8_t> finish(const char (&magic)[8],
                                   std::uint32_t version) const {
    std::vector<std::uint8_t> out;
    put_header(out, magic, version,
               static_cast<std::uint32_t>(sections_.size()));
    for (const Section& s : sections_) {
      put_section(out, s.tag, s.flags, s.payload);
    }
    return out;
  }

 private:
  std::vector<Section> sections_;
};

/// Parses and validates a checkpoint blob: magic, version, section table,
/// and every section's CRC. Throws SnapError on any structural problem.
class SnapReader {
 public:
  explicit SnapReader(std::span<const std::uint8_t> blob)
      : SnapReader(blob, kMagic, kFormatVersion) {}

  /// Parses a container carrying a foreign identity (see SnapWriter::finish
  /// overload). Magic and version mismatches are hard errors either way.
  SnapReader(std::span<const std::uint8_t> blob, const char (&magic)[8],
             std::uint32_t expected_version) {
    std::size_t pos = 0;
    const auto get32 = [&]() -> std::uint32_t {
      if (blob.size() - pos < 4) throw SnapError("blob truncated in header");
      std::uint32_t v = 0;
      for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(blob[pos + static_cast<std::size_t>(i)]) << (8 * i);
      pos += 4;
      return v;
    };
    const auto get64 = [&]() -> std::uint64_t {
      if (blob.size() - pos < 8) throw SnapError("blob truncated in header");
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(blob[pos + static_cast<std::size_t>(i)]) << (8 * i);
      pos += 8;
      return v;
    };

    if (blob.size() < 8 || std::memcmp(blob.data(), magic, 8) != 0) {
      throw SnapError("bad magic: not a " + std::string(magic, magic + 8) +
                      " blob");
    }
    pos = 8;
    const std::uint32_t version = get32();
    if (version != expected_version) {
      throw SnapError("unsupported format version " + std::to_string(version) +
                      " (expected " + std::to_string(expected_version) + ")");
    }
    const std::uint32_t count = get32();
    // Each section needs at least its header (tag, flags, len, crc): a
    // count the remaining bytes cannot hold is rejected before it sizes
    // the reservation.
    constexpr std::size_t kSectionHeaderBytes = 4 + 4 + 8 + 4;
    if (count > (blob.size() - pos) / kSectionHeaderBytes) {
      throw SnapError("section count " + std::to_string(count) + " exceeds " +
                      std::to_string(blob.size() - pos) + " remaining bytes");
    }
    sections_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Section s;
      s.tag = get32();
      s.flags = get32();
      const std::uint64_t len = get64();
      const std::uint32_t want_crc = get32();
      if (len > blob.size() - pos) {
        throw SnapError("section " + tag_name(s.tag) + " truncated (" +
                        std::to_string(len) + " bytes declared, " +
                        std::to_string(blob.size() - pos) + " remain)");
      }
      s.payload.assign(blob.begin() + static_cast<std::ptrdiff_t>(pos),
                       blob.begin() + static_cast<std::ptrdiff_t>(pos + len));
      pos += static_cast<std::size_t>(len);
      const std::uint32_t got_crc = crc32(s.payload.data(), s.payload.size());
      if (got_crc != want_crc) {
        throw SnapError("section " + tag_name(s.tag) + " CRC mismatch");
      }
      sections_.push_back(std::move(s));
    }
    if (pos != blob.size()) {
      throw SnapError("blob has trailing bytes after the last section");
    }
  }

  const std::vector<Section>& sections() const { return sections_; }

  const Section* find(std::uint32_t tag) const {
    for (const Section& s : sections_) {
      if (s.tag == tag) return &s;
    }
    return nullptr;
  }

 private:
  std::vector<Section> sections_;
};

}  // namespace aroma::snap

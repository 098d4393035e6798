// Byte-level serialization so protocol messages have realistic wire sizes.
//
// Little-endian fixed-width integers, length-prefixed strings/blobs. The
// reader is bounds-checked and reports truncation instead of throwing.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace aroma::net {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(std::span<const std::byte> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  const std::vector<std::byte>& data() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity, so a reused writer stops
  /// allocating once warmed.
  void clear() { buf_.clear(); }
  std::size_t size() const { return buf_.size(); }

 private:
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }
  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t u8() { std::uint8_t v = 0; raw(&v, 1); return v; }
  std::uint16_t u16() { std::uint16_t v = 0; raw(&v, 2); return v; }
  std::uint32_t u32() { std::uint32_t v = 0; raw(&v, 4); return v; }
  std::uint64_t u64() { std::uint64_t v = 0; raw(&v, 8); return v; }
  double f64() { double v = 0; raw(&v, 8); return v; }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok_ || remaining() < n) { ok_ = false; return {}; }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::byte> bytes() {
    const std::uint32_t n = u32();
    if (!ok_ || remaining() < n) { ok_ = false; return {}; }
    std::vector<std::byte> b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

 private:
  void raw(void* p, std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return;
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace aroma::net

// Simulation time: a strong integral type with nanosecond resolution.
//
// All layers of the Aroma stack share one deterministic time base. Using an
// integer tick count (rather than floating-point seconds) keeps event
// ordering exact and runs reproducible across platforms.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace aroma::sim {

/// A point in (or duration of) simulated time, in integer nanoseconds.
///
/// `Time` is used both as an absolute timestamp and as a duration; the
/// arithmetic operators support both uses. Construct values through the
/// named factories (`Time::ms(5)`, `Time::sec(1.5)`) rather than raw counts.
class Time {
 public:
  constexpr Time() = default;

  /// Named constructors.
  static constexpr Time ns(std::int64_t v) { return Time{v}; }
  static constexpr Time us(std::int64_t v) { return Time{v * 1'000}; }
  static constexpr Time ms(std::int64_t v) { return Time{v * 1'000'000}; }
  static constexpr Time sec(double v) {
    return Time{static_cast<std::int64_t>(v * 1e9)};
  }
  static constexpr Time zero() { return Time{0}; }
  static constexpr Time max() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

  /// Raw tick count (nanoseconds).
  constexpr std::int64_t count() const { return ns_; }
  /// Value in seconds as a double (for statistics and reporting only).
  constexpr double seconds() const { return static_cast<double>(ns_) * 1e-9; }
  constexpr double millis() const { return static_cast<double>(ns_) * 1e-6; }
  constexpr double micros() const { return static_cast<double>(ns_) * 1e-3; }

  constexpr bool is_zero() const { return ns_ == 0; }
  constexpr bool is_negative() const { return ns_ < 0; }

  friend constexpr Time operator+(Time a, Time b) { return Time{a.ns_ + b.ns_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ns_ - b.ns_}; }
  friend constexpr Time operator*(Time a, std::int64_t k) { return Time{a.ns_ * k}; }
  friend constexpr Time operator*(std::int64_t k, Time a) { return Time{a.ns_ * k}; }
  friend constexpr Time operator/(Time a, std::int64_t k) { return Time{a.ns_ / k}; }
  friend constexpr double operator/(Time a, Time b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  Time& operator+=(Time o) { ns_ += o.ns_; return *this; }
  Time& operator-=(Time o) { ns_ -= o.ns_; return *this; }

  friend constexpr auto operator<=>(Time, Time) = default;

  /// Human-readable rendering with an auto-selected unit, e.g. "12.5ms".
  std::string to_string() const;

 private:
  explicit constexpr Time(std::int64_t v) : ns_(v) {}
  std::int64_t ns_ = 0;
};

/// Scales a duration by a double factor, rounding to the nearest tick.
constexpr Time scale(Time t, double factor) {
  return Time::ns(static_cast<std::int64_t>(static_cast<double>(t.count()) * factor + 0.5));
}

}  // namespace aroma::sim

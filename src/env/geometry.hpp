// 2-D geometry primitives for the simulated physical environment.
#pragma once

#include <cmath>

namespace aroma::env {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  friend constexpr Vec2 operator*(Vec2 a, double k) { return {a.x * k, a.y * k}; }
  friend constexpr Vec2 operator*(double k, Vec2 a) { return a * k; }
  friend constexpr bool operator==(Vec2 a, Vec2 b) {
    return a.x == b.x && a.y == b.y;
  }

  double norm() const { return std::hypot(x, y); }
  constexpr double norm2() const { return x * x + y * y; }

  Vec2 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : Vec2{};
  }
};

inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }

/// Axis-aligned rectangle, used as the arena boundary for mobility models.
struct Rect {
  Vec2 lo;
  Vec2 hi;

  constexpr double width() const { return hi.x - lo.x; }
  constexpr double height() const { return hi.y - lo.y; }
  constexpr bool contains(Vec2 p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }
  constexpr Vec2 center() const {
    return {(lo.x + hi.x) * 0.5, (lo.y + hi.y) * 0.5};
  }
  Vec2 clamp(Vec2 p) const {
    return {p.x < lo.x ? lo.x : (p.x > hi.x ? hi.x : p.x),
            p.y < lo.y ? lo.y : (p.y > hi.y ? hi.y : p.y)};
  }
};

}  // namespace aroma::env

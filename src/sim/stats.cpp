#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace aroma::sim {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Accumulator::merge(const Accumulator& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double delta = o.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += o.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
  n_ += o.n_;
}

double Accumulator::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

std::string Accumulator::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "n=%llu mean=%.4g sd=%.3g min=%.4g max=%.4g",
                static_cast<unsigned long long>(n_), mean(), stddev(), min(),
                max());
  return buf;
}

}  // namespace aroma::sim

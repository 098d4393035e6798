#include "sim/stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

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

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {}

void Histogram::add(double x) {
  ++total_;
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
    ++clamped_;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
    ++clamped_;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;
  }
  ++counts_[idx];
}

void Histogram::merge_from(const Histogram& other) {
  if (!same_shape(other)) {
    throw std::invalid_argument(
        "Histogram::merge_from: shapes differ (lo/hi/bins must match)");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
  clamped_ += other.clamped_;
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac =
          counts_[i] ? (target - cum) / static_cast<double>(counts_[i]) : 0.0;
      return bin_lo(i) + frac * width_;
    }
    cum = next;
  }
  return hi_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + static_cast<double>(i) * width_;
}

}  // namespace aroma::sim

// Statistics accumulators used throughout the benches and experiments.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace aroma::sim {

/// Streaming mean/variance/min/max (Welford's algorithm).
class Accumulator {
 public:
  void add(double x);
  void merge(const Accumulator& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1)
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Half-width of the ~95% confidence interval on the mean.
  double ci95_halfwidth() const;

  std::string summary() const;

  /// Raw Welford state, for checkpoint/restore round-trips.
  double m2() const { return m2_; }
  void load(std::uint64_t n, double mean, double m2, double mn, double mx) {
    n_ = n;
    mean_ = mean;
    m2_ = m2;
    min_ = mn;
    max_ = mx;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Wall-clock stopwatch for measuring the real execution time of a bench
/// loop (simulated time says nothing about kernel throughput).
class WallTimer {
 public:
  WallTimer() { restart(); }
  // Inline: the kernel profiler brackets every event callback with a
  // restart/elapsed pair, so the call overhead lands inside the measured
  // window of every per-category wall figure.
  void restart() {
    t0_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  /// Seconds of real time since construction / the last restart().
  double elapsed_sec() const {
    const auto now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    return static_cast<double>(now_ns - t0_ns_) * 1e-9;
  }

 private:
  std::uint64_t t0_ns_ = 0;
};

/// Throughput summary for one kernel run: simulated events executed versus
/// the wall-clock seconds the run took, plus the high-water mark of the
/// pending-event queue. Benches surface these in their JSON output so the
/// perf trajectory records kernel throughput, not just scenario metrics.
struct Throughput {
  std::uint64_t events = 0;
  double wall_sec = 0.0;
  std::size_t peak_pending = 0;

  double events_per_sec() const {
    return wall_sec > 0.0 ? static_cast<double>(events) / wall_sec : 0.0;
  }
};

}  // namespace aroma::sim

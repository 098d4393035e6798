// Statistics accumulators used throughout the benches and experiments.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>


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

/// Fixed-bin histogram with quantile estimation; values outside the range
/// are clamped into the edge bins (and counted as clamped).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::uint64_t count() const { return total_; }
  std::uint64_t clamped() const { return clamped_; }

  /// Bucket-exact merge: adds `other`'s bin counts (and total/clamped) into
  /// this histogram. Requires an identical shape (lo, hi, bin count) —
  /// throws std::invalid_argument otherwise. Associative and commutative,
  /// so fleet shards can be folded in any grouping with one deterministic
  /// result.
  void merge_from(const Histogram& other);

  /// True when two histograms can merge_from each other.
  bool same_shape(const Histogram& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_ &&
           counts_.size() == other.counts_.size();
  }

  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Linear-interpolated quantile estimate, q in [0,1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double p99() const { return quantile(0.99); }

  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t bin(std::size_t i) const { return counts_[i]; }
  double bin_lo(std::size_t i) const;

  /// Overwrites the bin counts from a checkpoint. The shape (lo, hi, bin
  /// count) is structural and must already match.
  void load_counts(const std::vector<std::uint64_t>& counts,
                   std::uint64_t total, std::uint64_t clamped) {
    if (counts.size() != counts_.size()) {
      throw std::invalid_argument("Histogram::load_counts: shape mismatch");
    }
    counts_ = counts;
    total_ = total;
    clamped_ = clamped;
  }

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t clamped_ = 0;
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

// Log-bucketed HDR histogram: the registry's one distribution kind.
//
// `HdrHistogram` buckets a non-negative integer value (latencies in
// microseconds, update sizes in bytes) on a log-linear grid: exact buckets
// below 2^kSubBucketBits, then kSubBucketCount/2 = 32 sub-buckets per
// octave, so relative error is bounded by 1/2^(kSubBucketBits-1) = 1/32 at
// every scale up to kMaxValue. One fixed shape covers latencies that span
// five decades and byte counts alike, with no range to pick per metric.
//
// Everything is integer arithmetic on recorded counts, so percentile
// extraction is deterministic (a pure function of the recorded multiset),
// and merge is bucket-exact, associative, and commutative — fleet shards
// fold in any grouping with one result. Wired into MetricsRegistry as its
// `hdr` kind (see metrics.hpp) and round-trips through snap; restore
// rejects a payload whose counts or bounds disagree (snap::SnapError).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::obs {

class HdrHistogram {
 public:
  /// Sub-bucket resolution: values < 64 are exact; larger values carry 5
  /// significant bits (worst-case relative error 1/32).
  static constexpr unsigned kSubBucketBits = 6;
  static constexpr std::uint64_t kSubBucketCount = 1u << kSubBucketBits;
  /// Largest trackable value (~12.7 days in microseconds). Larger samples
  /// clamp into the top bucket and count as saturated().
  static constexpr std::uint64_t kMaxValue = (std::uint64_t{1} << 40) - 1;
  static constexpr std::size_t kBucketCount =
      kSubBucketCount + (40 - kSubBucketBits) * (kSubBucketCount / 2);

  void record(std::uint64_t value) { record_n(value, 1); }
  void record_n(std::uint64_t value, std::uint64_t n);

  std::uint64_t count() const { return count_; }
  /// Samples above kMaxValue (recorded, clamped into the top bucket).
  std::uint64_t saturated() const { return saturated_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return count_ ? max_ : 0; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Smallest recorded-value upper bound v such that at least ceil(q*count)
  /// samples are <= v; clamped to [min(), max()] so a single-sample
  /// histogram reports that sample exactly at every quantile. Returns 0
  /// when empty. Deterministic: integer bucket walk, no interpolation.
  std::uint64_t value_at_quantile(double q) const;
  std::uint64_t p50() const { return value_at_quantile(0.50); }
  std::uint64_t p99() const { return value_at_quantile(0.99); }
  std::uint64_t p999() const { return value_at_quantile(0.999); }

  /// Bucket-exact merge; associative and commutative.
  void merge_from(const HdrHistogram& other);

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // Sparse encoding: only non-empty buckets are written.
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

  /// Bucket geometry, exposed for tests and exporters.
  static std::size_t bucket_index(std::uint64_t value);
  /// Inclusive upper bound of a bucket's value range.
  static std::uint64_t bucket_upper(std::size_t index);
  std::uint64_t bucket(std::size_t index) const { return buckets_[index]; }

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t saturated_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace aroma::obs

#include "obs/hdr.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "snap/format.hpp"

namespace aroma::obs {

std::size_t HdrHistogram::bucket_index(std::uint64_t value) {
  if (value < kSubBucketCount) return static_cast<std::size_t>(value);
  const unsigned shift =
      static_cast<unsigned>(std::bit_width(value)) - kSubBucketBits;
  const std::uint64_t sub = value >> shift;  // in [kSubBucketCount/2, count)
  return static_cast<std::size_t>(kSubBucketCount +
                                  (shift - 1) * (kSubBucketCount / 2) +
                                  (sub - kSubBucketCount / 2));
}

std::uint64_t HdrHistogram::bucket_upper(std::size_t index) {
  if (index < kSubBucketCount) return index;
  const std::size_t rem = index - kSubBucketCount;
  const unsigned shift = static_cast<unsigned>(rem / (kSubBucketCount / 2)) + 1;
  const std::uint64_t sub = rem % (kSubBucketCount / 2) + kSubBucketCount / 2;
  return ((sub + 1) << shift) - 1;
}

void HdrHistogram::record_n(std::uint64_t value, std::uint64_t n) {
  if (n == 0) return;
  if (value > kMaxValue) {
    saturated_ += n;
    value = kMaxValue;
  }
  buckets_[bucket_index(value)] += n;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += n;
  sum_ += value * n;
}

std::uint64_t HdrHistogram::value_at_quantile(double q) const {
  if (count_ == 0) return 0;
  std::uint64_t target =
      q <= 0.0 ? 1
               : static_cast<std::uint64_t>(
                     std::ceil(q * static_cast<double>(count_)));
  target = std::clamp<std::uint64_t>(target, 1, count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      return std::clamp(bucket_upper(i), min_, max_);
    }
  }
  return max_;
}

void HdrHistogram::merge_from(const HdrHistogram& other) {
  if (other.count_ == 0) {
    saturated_ += other.saturated_;
    return;
  }
  for (std::size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  saturated_ += other.saturated_;
  sum_ += other.sum_;
}

void HdrHistogram::save(snap::SectionWriter& w) const {
  w.u64(count_);
  w.u64(saturated_);
  w.u64(sum_);
  w.u64(min_);
  w.u64(max_);
  std::uint64_t nonzero = 0;
  for (std::uint64_t c : buckets_) nonzero += c != 0;
  w.u64(nonzero);
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (buckets_[i] != 0) {
      w.u32(static_cast<std::uint32_t>(i));
      w.u64(buckets_[i]);
    }
  }
}

void HdrHistogram::restore(snap::SectionReader& r) {
  // Decoded aside and checked before it replaces this histogram, so a
  // forged payload never leaves state value_at_quantile cannot walk.
  HdrHistogram in;
  in.count_ = r.u64();
  in.saturated_ = r.u64();
  in.sum_ = r.u64();
  in.min_ = r.u64();
  in.max_ = r.u64();
  const std::uint64_t nonzero = r.u64();
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < nonzero; ++i) {
    const std::uint32_t index = r.u32();
    if (index >= kBucketCount || in.buckets_[index] != 0) {
      throw snap::SnapError("HdrHistogram bucket index out of range or "
                            "repeated");
    }
    const std::uint64_t n = r.u64();
    if (n == 0 || n > in.count_ - total) {
      throw snap::SnapError("HdrHistogram bucket counts exceed its count");
    }
    in.buckets_[index] = n;
    total += n;
  }
  if (total != in.count_) {
    throw snap::SnapError("HdrHistogram bucket counts do not sum to its count");
  }
  if (in.saturated_ > in.count_) {
    throw snap::SnapError("HdrHistogram saturated count exceeds its count");
  }
  if (in.count_ > 0 && in.min_ > in.max_) {
    throw snap::SnapError("HdrHistogram min exceeds max");
  }
  *this = in;
}

}  // namespace aroma::obs

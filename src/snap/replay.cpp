#include "snap/replay.hpp"

#include <algorithm>

#include "sim/random.hpp"

namespace aroma::snap {
namespace {

constexpr std::uint64_t kStreamHashBase = 0x9a3c47b2d15e6f01ULL;

std::uint64_t fold(std::uint64_t h, const EventId& e) {
  h = sim::mix_hash(h, static_cast<std::uint64_t>(e.when.count()));
  h = sim::mix_hash(h, e.id);
  return sim::mix_hash(h, e.seq);
}

}  // namespace

void ReplayHarness::attach(sim::Simulator& sim) {
  sim.attach_event_trace(&hot_);
}

void ReplayHarness::detach(sim::Simulator& sim) {
  sim.detach_event_trace(&hot_);
}

void ReplayHarness::clear() {
  events_.clear();
  prefix_hashes_.clear();
}

void ReplayHarness::record(sim::Time when, std::uint64_t id,
                           std::uint64_t seq) {
  const EventId e{when, id, seq};
  const std::uint64_t prev =
      prefix_hashes_.empty() ? kStreamHashBase : prefix_hashes_.back();
  events_.push_back(e);
  prefix_hashes_.push_back(fold(prev, e));
}

std::uint64_t ReplayHarness::stream_hash() const {
  return prefix_hashes_.empty() ? kStreamHashBase : prefix_hashes_.back();
}

std::uint64_t ReplayHarness::prefix_hash(std::size_t n) const {
  if (n == 0) return kStreamHashBase;
  if (n > prefix_hashes_.size()) n = prefix_hashes_.size();
  return prefix_hashes_[n - 1];
}

Divergence ReplayHarness::first_divergence(const ReplayHarness& expected,
                                           const ReplayHarness& actual) {
  Divergence d;
  const std::size_t common = std::min(expected.size(), actual.size());

  // Invariant: prefixes of length <= lo match, prefixes of length > hi
  // differ (within the common range). Finds the longest matching prefix.
  std::size_t lo = 0, hi = common;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (expected.prefix_hash(mid) == actual.prefix_hash(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }

  if (lo == common) {
    if (expected.size() == actual.size()) return d;  // identical streams
    d.diverged = true;
    d.index = common;
    d.length_mismatch = true;
    if (d.index < expected.size()) d.expected = expected.events()[d.index];
    if (d.index < actual.size()) d.actual = actual.events()[d.index];
    return d;
  }

  d.diverged = true;
  d.index = lo;  // first differing event
  d.expected = expected.events()[d.index];
  d.actual = actual.events()[d.index];
  return d;
}

}  // namespace aroma::snap

#include "obs/sampler.hpp"

#include <cmath>

#include "obs/flight.hpp"

namespace aroma::obs {

TimeseriesSampler::TimeseriesSampler(const MetricsRegistry& metrics,
                                     Options options)
    : metrics_(metrics), options_(options) {}

// Registry handles are deque-stable for the registry's lifetime, so the
// sampler caches one {metric pointer, track} source per counter/gauge and
// the steady-state walk is a flat scan of raw pointer reads. A full
// visitation (string lookups, track creation) only happens when the
// registry has grown since the last walk.
void TimeseriesSampler::rebuild_sources() {
  struct SourceVisitor final : MetricsRegistry::Visitor {
    explicit SourceVisitor(TimeseriesSampler& s) : s(s) {}

    void on_counter(const MetricInfo& info, const Counter& c) override {
      add(info, /*is_counter=*/true, &c);
    }
    void on_gauge(const MetricInfo& info, const Gauge& g) override {
      add(info, /*is_counter=*/false, &g);
    }
    void on_hdr(const MetricInfo&, const HdrHistogram&) override {}

    void add(const MetricInfo& info, bool is_counter, const void* metric) {
      auto it = s.track_index_.find(std::string_view(info.name));
      std::size_t index;
      if (it == s.track_index_.end()) {
        index = s.tracks_.size();
        s.tracks_.push_back(Track{info.name, info.layer, is_counter, {}});
        s.track_index_.emplace(std::string_view(info.name), index);
      } else {
        index = it->second;
      }
      const std::vector<Sample>& samples = s.tracks_[index].samples;
      Source src{metric, is_counter, /*has_last=*/false, 0.0, index};
      if (!samples.empty()) {
        src.has_last = true;
        src.last = samples.back().value;
      }
      s.sources_.push_back(src);
    }

    TimeseriesSampler& s;
  } v(*this);

  sources_.clear();
  metrics_.visit(v);
  seen_registry_size_ = metrics_.size();
}

void TimeseriesSampler::take_sample(sim::Time when) {
  if (metrics_.size() != seen_registry_size_) rebuild_sources();
  for (Source& src : sources_) {
    const double value =
        src.is_counter
            ? static_cast<double>(
                  static_cast<const Counter*>(src.metric)->value())
            : static_cast<const Gauge*>(src.metric)->value();
    if (src.has_last && src.last == value) {
      continue;  // unchanged since the last sample: no point
    }
    Track& track = tracks_[src.track];
    if (track.samples.size() >= options_.max_samples_per_track) {
      ++dropped_;
      continue;
    }
    if (recorder_ != nullptr && track.is_counter && src.has_last) {
      if (!track.flight_code_set) {
        track.flight_code = recorder_->intern(track.name);
        track.flight_code_set = true;
      }
      recorder_->record_metric(when, track.flight_code,
                               static_cast<std::uint64_t>(value),
                               static_cast<std::uint64_t>(src.last));
    }
    track.samples.push_back(Sample{when.count(), value});
    src.has_last = true;
    src.last = value;
  }
  ++samples_;
  next_due_ns_ = when.count() + options_.period.count();
}

}  // namespace aroma::obs

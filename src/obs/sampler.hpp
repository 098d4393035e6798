// Periodic timeseries sampler: counter/gauge tracks over simulated time.
//
// Snapshots are cheap but instantaneous; a timeline needs samples. The
// sampler piggybacks on the flight recorder's kernel trace slot — its due
// instant folds into the slot's wake deadline — and, whenever an event's
// timestamp crosses it, walks the registry and appends a (t, value) sample to each
// counter/gauge track that changed. No kernel event is ever scheduled, so
// sampling cannot perturb the run; sample instants are event timestamps
// and therefore deterministic.
//
// Tracks export as Chrome trace-event "C" (counter) rows on the existing
// Perfetto path (obs/export.hpp), giving the span timeline live counter
// lanes underneath it.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace aroma::obs {

class FlightRecorder;

class TimeseriesSampler {
 public:
  struct Options {
    sim::Time period = sim::Time::ms(250);
    /// Per-track cap; further samples are counted in samples_dropped().
    std::size_t max_samples_per_track = 1 << 12;
  };

  struct Sample {
    std::int64_t t_ns = 0;
    double value = 0.0;
  };
  struct Track {
    // View into the registry's stable name storage (handles and their
    // MetricInfo never relocate), so building a track allocates nothing
    // for the name and the index below hashes views, not copies.
    std::string_view name;
    lpc::Layer layer = lpc::Layer::kEnvironment;
    bool is_counter = false;
    std::vector<Sample> samples;
    // Interned flight-recorder code, resolved on the track's first
    // recorded delta (steady-state samples must not re-hash the name).
    std::uint16_t flight_code = 0;
    bool flight_code_set = false;
  };

  explicit TimeseriesSampler(const MetricsRegistry& metrics)
      : TimeseriesSampler(metrics, Options()) {}
  TimeseriesSampler(const MetricsRegistry& metrics, Options options);
  TimeseriesSampler(const TimeseriesSampler&) = delete;
  TimeseriesSampler& operator=(const TimeseriesSampler&) = delete;

  /// Flight recorder that receives a kMetricDelta record per changed
  /// counter sample (optional).
  void set_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  /// Forces a sample at `when` (the recorder calls this on cadence; owners
  /// call it once more at the end of a run to close every track).
  void take_sample(sim::Time when);

  /// Next sample deadline (ns). The flight recorder folds this into its
  /// unified wake deadline so the steady-state event path never touches
  /// the sampler at all.
  std::int64_t next_due_ns() const { return next_due_ns_; }

  const std::vector<Track>& tracks() const { return tracks_; }
  std::uint64_t samples_taken() const { return samples_; }
  std::uint64_t samples_dropped() const { return dropped_; }
  sim::Time period() const { return options_.period; }

 private:
  const MetricsRegistry& metrics_;
  Options options_;
  FlightRecorder* recorder_ = nullptr;
  void rebuild_sources();

  std::int64_t next_due_ns_ = 0;  // the first event takes the baseline
  std::unordered_map<std::string_view, std::size_t> track_index_;
  // Registry handles are deque-stable, so each counter/gauge is cached as
  // a raw pointer + track index; the steady-state walk never touches the
  // registry's visitation machinery. Rebuilt when the registry grows.
  struct Source {
    const void* metric = nullptr;  // Counter* or Gauge*
    bool is_counter = false;
    // Mirror of tracks_[track].samples.back().value, so the steady-state
    // unchanged-skip is one metric load and one compare — no track deref.
    bool has_last = false;
    double last = 0.0;
    std::size_t track = 0;
  };
  std::vector<Source> sources_;
  std::size_t seen_registry_size_ = 0;
  std::vector<Track> tracks_;
  std::uint64_t samples_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace aroma::obs

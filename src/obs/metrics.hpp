// Metrics registry: named counters, gauges and HDR histograms with LPC-layer
// labels.
//
// Components resolve metric handles once (construction time) and bump them
// on the hot path with a single pointer check; when no registry is attached
// to the world the handle is null and the cost is that check alone. All
// values are driven purely by simulated behavior — never wall clock — so a
// snapshot is a deterministic function of the seed and can be regressed
// byte-for-byte (BENCH_metrics.json).
//
// Naming convention: `layer.component.metric` (e.g. env.radio.transmissions,
// net.stack.delivered, disco.lease.expirations). The label carries the
// paper's LPC layer so snapshots group cross-layer behavior the way the
// model does.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lpc/layers.hpp"
#include "obs/hdr.hpp"
#include "sim/world.hpp"

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::obs {

/// Layer label helper that needs no lpc library linkage (obs sits below
/// lpc in the build graph; the enum itself is header-only).
std::string_view layer_label(lpc::Layer layer);

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  /// Overwrites the count (checkpoint restore only — counters are
  /// monotonic under normal operation).
  void set(std::uint64_t v) { value_ = v; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// One registered metric's identity (shared across kinds).
struct MetricInfo {
  std::string name;
  lpc::Layer layer = lpc::Layer::kEnvironment;
};

/// Registry of named metrics. Get-or-create by name; handles are stable for
/// the registry's lifetime (deque storage), so components may cache raw
/// pointers. The registry must outlive every component holding a handle —
/// attach telemetry to a World before constructing components on it. A name
/// belongs to one kind: asking for it as another throws std::invalid_argument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, lpc::Layer layer);
  Gauge& gauge(std::string_view name, lpc::Layer layer);
  /// Log-bucketed histogram (obs::HdrHistogram semantics: at most 1/32
  /// relative error up to 2^40, deterministic percentiles). All HDR metrics
  /// share one shape, so two of them always merge.
  HdrHistogram& hdr(std::string_view name, lpc::Layer layer);

  /// Convenience for pull-style publication of existing stats structs.
  void set_gauge(std::string_view name, lpc::Layer layer, double value) {
    gauge(name, layer).set(value);
  }
  void set_counter(std::string_view name, lpc::Layer layer,
                   std::uint64_t value);

  /// Merges `other` into this registry, walking `other` in its registration
  /// order: counters add, gauges last-write-wins (the incoming value
  /// replaces ours), HDRs merge bucket-exact. Metrics unknown here are
  /// created in the order encountered, so folding N shard registries in
  /// shard order yields one deterministic fleet registry (merge is
  /// associative: (a+b)+c == a+(b+c) entry-for-entry). A name held here
  /// under another kind throws std::invalid_argument; the entries before it
  /// are already merged.
  void merge(const MetricsRegistry& other);

  /// Lookup without creation; nullptr when the name was never registered.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const HdrHistogram* find_hdr(std::string_view name) const;

  std::size_t size() const { return order_.size(); }

  /// Visits every metric in registration order (snapshot/export order).
  struct Visitor {
    virtual ~Visitor() = default;
    virtual void on_counter(const MetricInfo&, const Counter&) = 0;
    virtual void on_gauge(const MetricInfo&, const Gauge&) = 0;
    virtual void on_hdr(const MetricInfo&, const HdrHistogram&) = 0;
  };
  void visit(Visitor& v) const;

  /// Ordered JSON snapshot: {"name": {"layer": ..., "kind": ..., value}}.
  std::string to_json(int indent = 2) const;

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // Serializes every metric (name, layer, kind, value) in registration
  // order. Restore writes values back through get-or-create, so metrics the
  // warmed-up registry has not registered yet are created in snapshot order
  // and component-cached handles stay valid — counters survive a restore
  // with their checkpointed counts. A name the registry holds under another
  // kind is a snap::SnapError.
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHdr };
  struct Entry {
    Kind kind;
    std::size_t index;  // into the kind's deque
  };

  /// Get-or-create core: the existing entry for `name` (throwing when it is
  /// another kind), or a new one appended to the deque `entries`.
  template <typename Entries>
  auto& get_or_create(Entries& entries, Kind kind, std::string_view name,
                      lpc::Layer layer);

  struct CounterEntry {
    MetricInfo info;
    Counter metric;
  };
  struct GaugeEntry {
    MetricInfo info;
    Gauge metric;
  };
  struct HdrEntry {
    MetricInfo info;
    HdrHistogram metric;
  };

  std::deque<CounterEntry> counters_;
  std::deque<GaugeEntry> gauges_;
  std::deque<HdrEntry> hdrs_;
  std::unordered_map<std::string, Entry> by_name_;
  std::vector<Entry> order_;  // registration order for stable snapshots
};

/// Null-safe handle resolution against a world's attached registry. Returns
/// nullptr when telemetry is off, so callsites reduce to one pointer check.
inline Counter* counter(sim::World& world, std::string_view name,
                        lpc::Layer layer) {
  MetricsRegistry* m = world.metrics();
  return m ? &m->counter(name, layer) : nullptr;
}
inline Gauge* gauge(sim::World& world, std::string_view name,
                    lpc::Layer layer) {
  MetricsRegistry* m = world.metrics();
  return m ? &m->gauge(name, layer) : nullptr;
}
inline HdrHistogram* hdr(sim::World& world, std::string_view name,
                         lpc::Layer layer) {
  MetricsRegistry* m = world.metrics();
  return m ? &m->hdr(name, layer) : nullptr;
}

}  // namespace aroma::obs

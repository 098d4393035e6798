#include "obs/metrics.hpp"

#include <cstdio>

#include "snap/format.hpp"

namespace aroma::obs {

std::string_view layer_label(lpc::Layer layer) {
  switch (layer) {
    case lpc::Layer::kEnvironment: return "environment";
    case lpc::Layer::kPhysical: return "physical";
    case lpc::Layer::kResource: return "resource";
    case lpc::Layer::kAbstract: return "abstract";
    case lpc::Layer::kIntentional: return "intentional";
  }
  return "?";
}

Counter& MetricsRegistry::counter(std::string_view name, lpc::Layer layer) {
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) return counters_[it->second.index].metric;
  const Entry e{Kind::kCounter, counters_.size()};
  counters_.push_back(CounterEntry{{std::string(name), layer}, Counter{}});
  by_name_.emplace(std::string(name), e);
  order_.push_back(e);
  return counters_.back().metric;
}

Gauge& MetricsRegistry::gauge(std::string_view name, lpc::Layer layer) {
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) return gauges_[it->second.index].metric;
  const Entry e{Kind::kGauge, gauges_.size()};
  gauges_.push_back(GaugeEntry{{std::string(name), layer}, Gauge{}});
  by_name_.emplace(std::string(name), e);
  order_.push_back(e);
  return gauges_.back().metric;
}

sim::Histogram& MetricsRegistry::histogram(std::string_view name,
                                           lpc::Layer layer, double lo,
                                           double hi, std::size_t bins) {
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) return histograms_[it->second.index].metric;
  const Entry e{Kind::kHistogram, histograms_.size()};
  histograms_.emplace_back(MetricInfo{std::string(name), layer}, lo, hi, bins);
  by_name_.emplace(std::string(name), e);
  order_.push_back(e);
  return histograms_.back().metric;
}

HdrHistogram& MetricsRegistry::hdr(std::string_view name, lpc::Layer layer) {
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) return hdrs_[it->second.index].metric;
  const Entry e{Kind::kHdr, hdrs_.size()};
  hdrs_.push_back(HdrEntry{{std::string(name), layer}, HdrHistogram{}});
  by_name_.emplace(std::string(name), e);
  order_.push_back(e);
  return hdrs_.back().metric;
}

void MetricsRegistry::set_counter(std::string_view name, lpc::Layer layer,
                                  std::uint64_t value) {
  Counter& c = counter(name, layer);
  if (value >= c.value()) c.add(value - c.value());
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  struct MergeVisitor final : Visitor {
    explicit MergeVisitor(MetricsRegistry& to) : to(to) {}
    void on_counter(const MetricInfo& info, const Counter& c) override {
      to.counter(info.name, info.layer).add(c.value());
    }
    void on_gauge(const MetricInfo& info, const Gauge& g) override {
      to.gauge(info.name, info.layer).set(g.value());
    }
    void on_histogram(const MetricInfo& info,
                      const sim::Histogram& h) override {
      sim::Histogram& mine =
          to.histogram(info.name, info.layer, h.lo(), h.hi(), h.bin_count());
      mine.merge_from(h);  // throws on shape mismatch
    }
    void on_hdr(const MetricInfo& info, const HdrHistogram& h) override {
      to.hdr(info.name, info.layer).merge_from(h);
    }
    MetricsRegistry& to;
  } v(*this);
  other.visit(v);
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end() || it->second.kind != Kind::kCounter) return nullptr;
  return &counters_[it->second.index].metric;
}

const HdrHistogram* MetricsRegistry::find_hdr(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end() || it->second.kind != Kind::kHdr) return nullptr;
  return &hdrs_[it->second.index].metric;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end() || it->second.kind != Kind::kGauge) return nullptr;
  return &gauges_[it->second.index].metric;
}

const sim::Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end() || it->second.kind != Kind::kHistogram) {
    return nullptr;
  }
  return &histograms_[it->second.index].metric;
}

void MetricsRegistry::visit(Visitor& v) const {
  for (const Entry& e : order_) {
    switch (e.kind) {
      case Kind::kCounter:
        v.on_counter(counters_[e.index].info, counters_[e.index].metric);
        break;
      case Kind::kGauge:
        v.on_gauge(gauges_[e.index].info, gauges_[e.index].metric);
        break;
      case Kind::kHistogram:
        v.on_histogram(histograms_[e.index].info, histograms_[e.index].metric);
        break;
      case Kind::kHdr:
        v.on_hdr(hdrs_[e.index].info, hdrs_[e.index].metric);
        break;
    }
  }
}

namespace {

void json_escape(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void json_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

class JsonVisitor : public MetricsRegistry::Visitor {
 public:
  JsonVisitor(std::string& out, std::string pad) : out_(out), pad_(pad) {}

  void on_counter(const MetricInfo& info, const Counter& c) override {
    open(info, "counter");
    out_ += "\"value\": " + std::to_string(c.value()) + "}";
  }
  void on_gauge(const MetricInfo& info, const Gauge& g) override {
    open(info, "gauge");
    out_ += "\"value\": ";
    json_number(out_, g.value());
    out_ += "}";
  }
  void on_histogram(const MetricInfo& info, const sim::Histogram& h) override {
    open(info, "histogram");
    out_ += "\"count\": " + std::to_string(h.count());
    out_ += ", \"clamped\": " + std::to_string(h.clamped());
    out_ += ", \"p50\": ";
    json_number(out_, h.median());
    out_ += ", \"p99\": ";
    json_number(out_, h.p99());
    out_ += ", \"bins\": [";
    for (std::size_t i = 0; i < h.bin_count(); ++i) {
      if (i) out_ += ", ";
      out_ += std::to_string(h.bin(i));
    }
    out_ += "]}";
  }
  void on_hdr(const MetricInfo& info, const HdrHistogram& h) override {
    open(info, "hdr");
    out_ += "\"count\": " + std::to_string(h.count());
    out_ += ", \"saturated\": " + std::to_string(h.saturated());
    out_ += ", \"min\": " + std::to_string(h.min());
    out_ += ", \"max\": " + std::to_string(h.max());
    out_ += ", \"mean\": ";
    json_number(out_, h.mean());
    out_ += ", \"p50\": " + std::to_string(h.p50());
    out_ += ", \"p99\": " + std::to_string(h.p99());
    out_ += ", \"p999\": " + std::to_string(h.p999()) + "}";
  }

  bool first = true;

 private:
  void open(const MetricInfo& info, std::string_view kind) {
    if (!first) out_ += ",";
    first = false;
    out_ += "\n" + pad_;
    json_escape(out_, info.name);
    out_ += ": {\"layer\": ";
    json_escape(out_, layer_label(info.layer));
    out_ += ", \"kind\": \"";
    out_ += kind;
    out_ += "\", ";
  }

  std::string& out_;
  std::string pad_;
};

}  // namespace

void MetricsRegistry::save(snap::SectionWriter& w) const {
  w.u64(order_.size());
  for (const Entry& e : order_) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    switch (e.kind) {
      case Kind::kCounter: {
        const CounterEntry& c = counters_[e.index];
        w.str(c.info.name);
        w.u8(static_cast<std::uint8_t>(c.info.layer));
        w.u64(c.metric.value());
        break;
      }
      case Kind::kGauge: {
        const GaugeEntry& g = gauges_[e.index];
        w.str(g.info.name);
        w.u8(static_cast<std::uint8_t>(g.info.layer));
        w.f64(g.metric.value());
        break;
      }
      case Kind::kHistogram: {
        const HistogramEntry& h = histograms_[e.index];
        w.str(h.info.name);
        w.u8(static_cast<std::uint8_t>(h.info.layer));
        w.f64(h.metric.lo());
        w.f64(h.metric.hi());
        w.u64(h.metric.bin_count());
        w.u64(h.metric.count());
        w.u64(h.metric.clamped());
        for (std::size_t i = 0; i < h.metric.bin_count(); ++i) {
          w.u64(h.metric.bin(i));
        }
        break;
      }
      case Kind::kHdr: {
        const HdrEntry& h = hdrs_[e.index];
        w.str(h.info.name);
        w.u8(static_cast<std::uint8_t>(h.info.layer));
        h.metric.save(w);
        break;
      }
    }
  }
}

void MetricsRegistry::restore(snap::SectionReader& r) {
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto kind = static_cast<Kind>(r.u8());
    const std::string name = r.str();
    const auto layer = static_cast<lpc::Layer>(r.u8());
    switch (kind) {
      case Kind::kCounter:
        counter(name, layer).set(r.u64());
        break;
      case Kind::kGauge:
        gauge(name, layer).set(r.f64());
        break;
      case Kind::kHistogram: {
        const double lo = r.f64();
        const double hi = r.f64();
        // Bounded by the payload left, not sized by a forged count (total
        // and clamped sit between count and bins: loose by two u64s).
        const std::uint64_t bins = r.entry_count(8, "OBSM histogram bin");
        const std::uint64_t total = r.u64();
        const std::uint64_t clamped = r.u64();
        std::vector<std::uint64_t> counts(static_cast<std::size_t>(bins));
        for (auto& c : counts) c = r.u64();
        sim::Histogram& h =
            histogram(name, layer, lo, hi, static_cast<std::size_t>(bins));
        if (h.lo() != lo || h.hi() != hi ||
            h.bin_count() != static_cast<std::size_t>(bins)) {
          throw snap::SnapError("histogram " + name +
                                " shape differs from checkpoint");
        }
        h.load_counts(counts, total, clamped);
        break;
      }
      case Kind::kHdr:
        hdr(name, layer).restore(r);
        break;
      default:
        throw snap::SnapError("unknown metric kind in checkpoint");
    }
  }
}

std::string MetricsRegistry::to_json(int indent) const {
  std::string out = "{";
  JsonVisitor v(out, std::string(static_cast<std::size_t>(indent), ' '));
  visit(v);
  out += v.first ? "}" : "\n}";
  return out;
}

}  // namespace aroma::obs

#include "obs/metrics.hpp"

#include <cstdio>
#include <stdexcept>

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

template <typename Entries>
auto& MetricsRegistry::get_or_create(Entries& entries, Kind kind,
                                     std::string_view name, lpc::Layer layer) {
  static constexpr const char* kKindNames[] = {"counter", "gauge", "hdr"};
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    if (it->second.kind != kind) {
      throw std::invalid_argument(
          "metric " + std::string(name) + " is a " +
          kKindNames[static_cast<int>(it->second.kind)] + ", not a " +
          kKindNames[static_cast<int>(kind)]);
    }
    return entries[it->second.index].metric;
  }
  const Entry e{kind, entries.size()};
  entries.push_back({{std::string(name), layer}, {}});
  by_name_.emplace(std::string(name), e);
  order_.push_back(e);
  return entries.back().metric;
}

Counter& MetricsRegistry::counter(std::string_view name, lpc::Layer layer) {
  return get_or_create(counters_, Kind::kCounter, name, layer);
}

Gauge& MetricsRegistry::gauge(std::string_view name, lpc::Layer layer) {
  return get_or_create(gauges_, Kind::kGauge, name, layer);
}

HdrHistogram& MetricsRegistry::hdr(std::string_view name, lpc::Layer layer) {
  return get_or_create(hdrs_, Kind::kHdr, name, layer);
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

void MetricsRegistry::visit(Visitor& v) const {
  for (const Entry& e : order_) {
    switch (e.kind) {
      case Kind::kCounter:
        v.on_counter(counters_[e.index].info, counters_[e.index].metric);
        break;
      case Kind::kGauge:
        v.on_gauge(gauges_[e.index].info, gauges_[e.index].metric);
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
    try {
      switch (kind) {
        case Kind::kCounter:
          counter(name, layer).set(r.u64());
          break;
        case Kind::kGauge:
          gauge(name, layer).set(r.f64());
          break;
        case Kind::kHdr:
          hdr(name, layer).restore(r);
          break;
        default:
          throw snap::SnapError("unknown metric kind in checkpoint");
      }
    } catch (const std::invalid_argument& e) {
      throw snap::SnapError(std::string("OBSM: ") + e.what());
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

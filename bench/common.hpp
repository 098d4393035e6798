// Shared scenario plumbing for the benchmark harnesses and examples: a
// wireless cell with devices, stacks, helpers for printing result tables
// in a uniform format, and the gate record every BENCH_*.json shares.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "env/environment.hpp"
#include "net/stack.hpp"
#include "obs/telemetry.hpp"
#include "phys/device.hpp"
#include "scn/golden.hpp"
#include "sim/fleet.hpp"
#include "sim/simd.hpp"
#include "sim/world.hpp"

namespace aroma::benchsup {

/// Attaches an (optional) telemetry bundle to a world for the current
/// scope, detaching on every exit path — a world must never outlive its
/// attachment by less than the components holding metric handles.
class ScopedTelemetry {
 public:
  ScopedTelemetry(obs::Telemetry* telemetry, sim::World& world)
      : telemetry_(telemetry), world_(world) {
    if (telemetry_ != nullptr) telemetry_->attach(world_);
  }
  ~ScopedTelemetry() {
    if (telemetry_ != nullptr) telemetry_->detach(world_);
  }
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  obs::Telemetry* telemetry_;
  sim::World& world_;
};

/// One simulated 2.4 GHz cell with uniquely-numbered nodes.
class Cell {
 public:
  explicit Cell(std::uint64_t seed = 1, env::Environment::Params params = {})
      : world_(seed), env_(world_, seed_shadowing(params, seed)) {}

  struct Node {
    phys::Device* device;
    net::NetStack* stack;
  };

  /// Adds a node at a fixed position. Channel defaults to 6.
  Node add(phys::DeviceProfile profile, env::Vec2 pos, int channel = 6) {
    phys::Device::Options opt;
    opt.channel = channel;
    return add_with_options(std::move(profile), pos, opt);
  }

  Node add_with_options(phys::DeviceProfile profile, env::Vec2 pos,
                        const phys::Device::Options& options) {
    const std::uint64_t id = next_id_++;
    devices_.push_back(std::make_unique<phys::Device>(
        world_, env_, id, std::move(profile),
        std::make_unique<env::StaticMobility>(pos), options));
    stacks_.push_back(
        std::make_unique<net::NetStack>(world_, devices_.back()->mac()));
    return {devices_.back().get(), stacks_.back().get()};
  }

  /// Adds a node with an arbitrary mobility model.
  Node add_mobile(phys::DeviceProfile profile,
                  std::unique_ptr<env::MobilityModel> mobility,
                  int channel = 6) {
    const std::uint64_t id = next_id_++;
    phys::Device::Options opt;
    opt.channel = channel;
    devices_.push_back(std::make_unique<phys::Device>(
        world_, env_, id, std::move(profile), std::move(mobility), opt));
    stacks_.push_back(
        std::make_unique<net::NetStack>(world_, devices_.back()->mac()));
    return {devices_.back().get(), stacks_.back().get()};
  }

  sim::World& world() { return world_; }
  env::Environment& environment() { return env_; }
  void run_until(double sec) { world_.sim().run_until(sim::Time::sec(sec)); }

 private:
  // Ties per-link shadowing draws to the trial seed unless the caller
  // pinned an explicit one.
  static env::Environment::Params seed_shadowing(
      env::Environment::Params params, std::uint64_t seed) {
    if (params.path_loss.seed == env::PathLossModel::Params{}.seed) {
      params.path_loss.seed = seed;
    }
    return params;
  }

  sim::World world_;
  env::Environment env_;
  std::vector<std::unique_ptr<phys::Device>> devices_;
  std::vector<std::unique_ptr<net::NetStack>> stacks_;
  std::uint64_t next_id_ = 1;
};

/// Lower quartile, median and upper quartile of a sample (linear
/// interpolation between order statistics); all zero for an empty one.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto at = [&v](double p) {
    const double x = p * static_cast<double>(v.size() - 1);
    const auto i = static_cast<std::size_t>(x);
    if (i + 1 >= v.size()) return v[i];
    return v[i] + (x - static_cast<double>(i)) * (v[i + 1] - v[i]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// Right-aligns `v` in a 14-column cell. An 18-character fingerprint
/// ("0x" + 16 hex digits) cannot fit, so it gets one separating space
/// instead of running into its neighbour. Other text keeps the classic
/// fixed cell: the figure benches' archived output is byte-compared.
inline std::string table_text(const std::string& v) {
  if (v.size() > 14 && v.rfind("0x", 0) == 0) return " " + v;
  char cell[64];
  std::snprintf(cell, sizeof cell, "%14s", v.c_str());
  return cell;
}

/// Prints a table header + separator: title, then column names.
inline void table_header(const std::string& title,
                         const std::vector<std::string>& columns) {
  std::printf("\n### %s\n", title.c_str());
  std::string line;
  for (const auto& c : columns) line += table_text(c);
  std::printf("%s\n", line.c_str());
  std::printf("%s\n", std::string(line.size(), '-').c_str());
}

inline void table_cell(double v) { std::printf("%14.4g", v); }
inline void table_cell(const std::string& v) {
  std::printf("%s", table_text(v).c_str());
}
inline void table_end_row() { std::printf("\n"); }

template <typename... Ts>
void table_row(Ts... cells) {
  (table_cell(cells), ...);
  table_end_row();
}

/// Minimal ordered JSON document builder for machine-readable bench output
/// (BENCH_*.json files future PRs regress against). Keys keep insertion
/// order so emitted files diff cleanly between runs.
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::int64_t i) : value_(i) {}
  Json(std::uint64_t u) : value_(static_cast<std::int64_t>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}

  static Json object() {
    Json j;
    j.value_ = Members{};
    return j;
  }
  static Json array() {
    Json j;
    j.value_ = Elements{};
    return j;
  }

  /// Object member insertion (last write wins on duplicate keys).
  Json& set(const std::string& key, Json v) {
    auto& members = std::get<Members>(value_);
    for (auto& [k, existing] : members) {
      if (k == key) {
        existing = std::move(v);
        return *this;
      }
    }
    members.emplace_back(key, std::move(v));
    return *this;
  }

  /// Array element append.
  Json& push(Json v) {
    std::get<Elements>(value_).push_back(std::move(v));
    return *this;
  }

  std::string dump(int indent = 2) const {
    std::string out;
    write(out, indent, 0);
    return out;
  }

  /// Writes the document to `path` with a trailing newline; returns success.
  bool write_file(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << dump() << "\n";
    return static_cast<bool>(f);
  }

 private:
  struct Members;
  struct Elements;
  using Value = std::variant<std::nullptr_t, bool, std::int64_t, double,
                             std::string, Members, Elements>;
  struct Members : std::vector<std::pair<std::string, Json>> {};
  struct Elements : std::vector<Json> {};

  static void escape(std::string& out, const std::string& s) {
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

  void write(std::string& out, int indent, int depth) const {
    const std::string pad(static_cast<std::size_t>(indent * (depth + 1)), ' ');
    const std::string close_pad(static_cast<std::size_t>(indent * depth), ' ');
    if (std::holds_alternative<std::nullptr_t>(value_)) {
      out += "null";
    } else if (const auto* b = std::get_if<bool>(&value_)) {
      out += *b ? "true" : "false";
    } else if (const auto* i = std::get_if<std::int64_t>(&value_)) {
      out += std::to_string(*i);
    } else if (const auto* d = std::get_if<double>(&value_)) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.10g", *d);
      out += buf;
    } else if (const auto* s = std::get_if<std::string>(&value_)) {
      escape(out, *s);
    } else if (const auto* m = std::get_if<Members>(&value_)) {
      if (m->empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < m->size(); ++i) {
        out += pad;
        escape(out, (*m)[i].first);
        out += ": ";
        (*m)[i].second.write(out, indent, depth + 1);
        if (i + 1 < m->size()) out += ',';
        out += '\n';
      }
      out += close_pad + "}";
    } else if (const auto* a = std::get_if<Elements>(&value_)) {
      if (a->empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < a->size(); ++i) {
        out += pad;
        (*a)[i].write(out, indent, depth + 1);
        if (i + 1 < a->size()) out += ',';
        out += '\n';
      }
      out += close_pad + "]";
    }
  }

  Value value_;
};

/// The one fingerprint format of every artifact: "0x" + 16 hex digits.
inline std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Gates: the one schema every BENCH_*.json shares
//
//   "host":    {cores, cpu, compiler, build, simd}
//   "gates":   [{name, value, op, threshold, noise, pass}]
//   "equal":   [{name, values}]   fingerprints that must be one value
//   "goldens": [{scenario, seed, shards, fingerprint, events}]
//
// A deterministic gate (a fingerprint, byte or count gate; `noise` null)
// passes when `value op threshold`, `op` one of ">=", "<=", "==". A timing
// gate's `value` is the median of at least kMinPairs interleaved pairs and
// `noise` is {pairs, q1, q3} of the pair values; it passes when its median
// and its near quartile (q1 for ">=", q3 for "<=") both meet the
// threshold, since a gate inside its own noise measures nothing. `pass` is
// null only when the build or host cannot run the gate (a sanitized build,
// fewer than kMinCores cores, or the scalar SIMD backend). Each bench
// defines each gate and its threshold once, through this class;
// check_bench_json.py recomputes every pass by the same rule and
// re-derives the equal groups and the goldens (scenarios/goldens.txt).

/// True in an AddressSanitizer or ThreadSanitizer build, whose walls time
/// the instrumentation rather than the program.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

/// The host block: what the numbers were measured on.
inline Json host() {
  std::string cpu = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    const std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) cpu = s.substr(first, last - first + 1);
  }
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(__OPTIMIZE__)
  std::string build = "optimized";
#else
  std::string build = "unoptimized";
#endif
  if (kSanitized) build += ", sanitized";
  Json h = Json::object();
  h.set("cores", static_cast<std::uint64_t>(
                     sim::WorkStealingPool::hardware_workers()));
  h.set("cpu", cpu);
  h.set("compiler", compiler);
  h.set("build", build);
  h.set("simd", sim::simd::kBackend);
  return h;
}

enum class Op { kGe, kLe, kEq };

class Gates {
 public:
  static constexpr std::size_t kMinPairs = 7;
  static constexpr std::size_t kMinCores = 4;

  /// A deterministic gate: a fingerprint, byte or count comparison.
  void check(const std::string& name, double value, Op op, double threshold) {
    add(name, value, op, threshold, Json(), "", true);
  }

  /// Why this build or host cannot run a timing gate, or "" when it can.
  /// A `parallel` gate compares kMinCores workers against one.
  static std::string cannot_time(bool parallel) {
    if (kSanitized) return "sanitized build: walls time the instrumentation";
    const std::size_t hw = sim::WorkStealingPool::hardware_workers();
    if (parallel && hw < kMinCores)
      return std::to_string(hw) + "-core host cannot run " +
             std::to_string(kMinCores) + " workers";
    return "";
  }

  /// A timing gate on the per-pair values of interleaved pairs, each pair
  /// measuring both sides back to back so host drift hits both alike. The
  /// gate reads their median; their quartiles are its noise, and the near
  /// quartile must meet the threshold too. Skipped where cannot_time says.
  void timing(const std::string& name, const std::vector<double>& pairs,
              Op op, double threshold, bool parallel = false) {
    if (const std::string why = cannot_time(parallel); !why.empty()) {
      skip(name, op, threshold, why);
      return;
    }
    const Quartiles q = quartiles(pairs);
    Json noise = Json::object();
    noise.set("pairs", static_cast<std::uint64_t>(pairs.size()));
    noise.set("q1", q.q1);
    noise.set("q3", q.q3);
    const double near = op == Op::kLe ? q.q3 : q.q1;
    char text[96];
    std::snprintf(text, sizeof text, " (quartiles %.4g-%.4g of %zu pairs)",
                  q.q1, q.q3, pairs.size());
    add(name, q.median, op, threshold, std::move(noise), text,
        op != Op::kEq && holds(near, op, threshold));
  }

  /// A gate this host cannot run; `why` says which observation ruled it out.
  void skip(const std::string& name, Op op, double threshold,
            const std::string& why) {
    Json g = record(name, Json(), op, threshold, Json());
    g.set("pass", Json());
    gates_.push(std::move(g));
    lines_.push_back("skip " + name + ": " + why);
  }

  /// Fingerprints that must all be one value.
  void equal(const std::string& name, const std::vector<std::uint64_t>& fps) {
    Json values = Json::array();
    std::string text;
    bool same = true;
    for (const std::uint64_t fp : fps) {
      values.push(hex64(fp));
      text += ' ';
      text += hex64(fp);
      same = same && fp == fps.front();
    }
    if (same && !fps.empty()) {
      text = " ";
      text += std::to_string(fps.size());
      text += " x ";
      text += hex64(fps.front());
    }
    Json e = Json::object();
    e.set("name", name);
    e.set("values", std::move(values));
    equal_.push(std::move(e));
    verdict(same, "equal " + name + ":" + text);
  }

  /// A fleet result pinned in scenarios/goldens.txt.
  void golden(const scn::FleetGolden& pinned, std::uint64_t fp,
              std::uint64_t events) {
    Json g = Json::object();
    g.set("scenario", pinned.scenario);
    g.set("seed", pinned.seed);
    g.set("shards", static_cast<std::uint64_t>(pinned.shards));
    g.set("fingerprint", hex64(fp));
    g.set("events", events);
    goldens_.push(std::move(g));
    verdict(fp == pinned.fleet_fp && events == pinned.events,
            "golden " + pinned.scenario + " x" +
                std::to_string(pinned.shards) + ": " + hex64(fp) + " / " +
                std::to_string(events) + " events, pinned " +
                hex64(pinned.fleet_fp) + " / " +
                std::to_string(pinned.events));
  }

  /// A leg that could not run to its gates; fails the bench.
  void fail(const std::string& what) { verdict(false, what); }

  /// Prints every gate, adds the host block and the three gate arrays to
  /// `doc`, writes it to `path`, and returns the bench's exit status.
  int finish(Json& doc, const std::string& path) {
    doc.set("host", host());
    doc.set("gates", std::move(gates_));
    doc.set("equal", std::move(equal_));
    doc.set("goldens", std::move(goldens_));
    std::printf("\n### gates\n");
    for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
    if (!doc.write_file(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return failed_ ? 1 : 0;
  }

 private:
  static const char* op_text(Op op) {
    return op == Op::kGe ? ">=" : op == Op::kLe ? "<=" : "==";
  }

  static Json record(const std::string& name, Json value, Op op,
                     double threshold, Json noise) {
    Json g = Json::object();
    g.set("name", name);
    g.set("value", std::move(value));
    g.set("op", op_text(op));
    g.set("threshold", threshold);
    g.set("noise", std::move(noise));
    return g;
  }

  static bool holds(double value, Op op, double threshold) {
    return op == Op::kGe   ? value >= threshold
           : op == Op::kLe ? value <= threshold
                           : value == threshold;
  }

  void add(const std::string& name, double value, Op op, double threshold,
           Json noise, const std::string& spread, bool quartile_ok) {
    const bool pass = holds(value, op, threshold) && quartile_ok;
    Json g = record(name, value, op, threshold, std::move(noise));
    g.set("pass", pass);
    gates_.push(std::move(g));
    char text[160];
    std::snprintf(text, sizeof text, "gate %s: %.6g %s %g", name.c_str(),
                  value, op_text(op), threshold);
    verdict(pass, text + spread);
  }

  void verdict(bool pass, const std::string& line) {
    lines_.push_back((pass ? "ok   " : "FAIL ") + line);
    if (!pass) {
      std::fprintf(stderr, "FAIL: %s\n", line.c_str());
      failed_ = true;
    }
  }

  Json gates_ = Json::array();
  Json equal_ = Json::array();
  Json goldens_ = Json::array();
  std::vector<std::string> lines_;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// BENCH_metrics.json sections
//
// Each figure bench contributes its domain counters under its own top-level
// key, so running the bench suite accumulates one file:
//   { "cs_projector": { "metrics": [...] }, "fig3_resource": {...}, ... }
// The splice below only has to understand JSON this module wrote itself; on
// any parse trouble it starts the file over with just the new section.

namespace detail {

/// Splits `{"k1": <raw1>, "k2": <raw2>}` into (key, raw value text) pairs.
/// Values are kept verbatim (balanced braces/brackets, string-aware).
inline bool split_top_level(const std::string& text,
                            std::vector<std::pair<std::string, std::string>>&
                                sections) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\n' || text[i] == '\r' ||
            text[i] == '\t')) {
      ++i;
    }
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return false;
  ++i;
  while (true) {
    skip_ws();
    if (i >= text.size()) return false;
    if (text[i] == '}') return true;
    if (text[i] != '"') return false;
    ++i;
    std::string key;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') return false;  // we never write escaped keys
      key += text[i++];
    }
    if (i >= text.size()) return false;
    ++i;  // closing quote
    skip_ws();
    if (i >= text.size() || text[i] != ':') return false;
    ++i;
    skip_ws();
    const std::size_t start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;  // the closing '}' of the top-level object
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    if (i >= text.size()) return false;
    std::string value = text.substr(start, i - start);
    while (!value.empty() &&
           (value.back() == ' ' || value.back() == '\n' ||
            value.back() == '\r' || value.back() == '\t')) {
      value.pop_back();
    }
    sections.emplace_back(std::move(key), std::move(value));
    if (text[i] == ',') ++i;
  }
}

}  // namespace detail

/// Writes (or updates in place) the `bench` section of `path`, preserving
/// sections other benches wrote. The section body is the registry snapshot.
inline bool write_metrics_section(const std::string& path,
                                  const std::string& bench,
                                  const obs::MetricsRegistry& metrics) {
  std::vector<std::pair<std::string, std::string>> sections;
  {
    std::ifstream in(path);
    if (in) {
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      if (!detail::split_top_level(text, sections)) sections.clear();
    }
  }
  // Indent the fresh snapshot one level so it nests under its key.
  std::string section = metrics.to_json(2);
  for (std::size_t pos = 0; (pos = section.find('\n', pos)) !=
                            std::string::npos;
       pos += 3) {
    section.insert(pos + 1, "  ");
  }
  bool replaced = false;
  for (auto& [key, value] : sections) {
    if (key == bench) {
      value = section;
      replaced = true;
      break;
    }
  }
  if (!replaced) sections.emplace_back(bench, std::move(section));

  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    out << "  \"" << sections[i].first << "\": " << sections[i].second;
    if (i + 1 < sections.size()) out << ',';
    out << '\n';
  }
  out << "}\n";
  return static_cast<bool>(out);
}

}  // namespace aroma::benchsup

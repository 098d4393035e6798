#include "obs/span.hpp"

#include <algorithm>

#include "snap/format.hpp"

namespace aroma::obs {

SpanId SpanTracer::begin(sim::Time now, std::string_view name,
                         lpc::Layer layer, SpanId parent,
                         sim::TraceLevel level) {
  if (records_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  SpanRecord rec;
  rec.id = next_id_++;
  rec.parent = parent;
  rec.start = now;
  rec.end = sim::Time::max();
  rec.name = std::string(name);
  rec.layer = layer;
  rec.level = level;
  index_.emplace(rec.id, records_.size());
  records_.push_back(std::move(rec));
  return records_.back().id;
}

void SpanTracer::end(SpanId id, sim::Time now) {
  if (id == 0) return;
  auto it = index_.find(id);
  if (it == index_.end()) return;
  SpanRecord& rec = records_[it->second];
  if (!rec.open()) return;
  rec.end = now;
  if (hook_) hook_(rec);
}

SpanId SpanTracer::instant(sim::Time now, std::string_view name,
                           lpc::Layer layer, SpanId parent,
                           sim::TraceLevel level) {
  return instant(now, name, layer, parent, level, {});
}

SpanId SpanTracer::instant(
    sim::Time now, std::string_view name, lpc::Layer layer, SpanId parent,
    sim::TraceLevel level,
    std::vector<std::pair<std::string, std::string>> args) {
  SpanRecord rec;
  rec.parent = parent;
  rec.start = now;
  rec.end = now;
  rec.name = std::string(name);
  rec.layer = layer;
  rec.level = level;
  rec.instant = true;
  rec.args = std::move(args);
  if (records_.size() >= capacity_) {
    // Dropped from the buffer but still visible to the hook, so issue
    // mining keeps working on long soak runs.
    ++dropped_;
    if (hook_) hook_(rec);
    return 0;
  }
  rec.id = next_id_++;
  index_.emplace(rec.id, records_.size());
  records_.push_back(std::move(rec));
  if (hook_) hook_(records_.back());
  return records_.back().id;
}

void SpanTracer::annotate(SpanId id, std::string_view key,
                          std::string_view value) {
  if (id == 0) return;
  auto it = index_.find(id);
  if (it == index_.end()) return;
  records_[it->second].args.emplace_back(std::string(key), std::string(value));
}

void SpanTracer::append_shard(const SpanTracer& other, std::uint64_t shard_id) {
  const SpanId tag = (shard_id + 1) << kShardIdShift;
  const auto remap = [tag](SpanId id) { return id == 0 ? 0 : (tag | id); };
  for (const SpanRecord& src : other.records_) {
    if (records_.size() >= capacity_) {
      dropped_ += other.records_.size() -
                  (&src - other.records_.data());  // everything left
      return;
    }
    SpanRecord rec = src;
    rec.id = remap(src.id);
    rec.parent = remap(src.parent);
    index_.emplace(rec.id, records_.size());
    records_.push_back(std::move(rec));
  }
  dropped_ += other.dropped_;
}

const SpanRecord* SpanTracer::find(SpanId id) const {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &records_[it->second];
}

std::size_t SpanTracer::count_with_name(std::string_view name) const {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(),
                    [&](const SpanRecord& r) { return r.name == name; }));
}

std::vector<const SpanRecord*> SpanTracer::ancestry(SpanId id) const {
  std::vector<const SpanRecord*> chain;
  while (id != 0) {
    const SpanRecord* rec = find(id);
    if (rec == nullptr) break;
    chain.push_back(rec);
    if (chain.size() > records_.size()) break;  // defensive: cyclic ids
    id = rec->parent;
  }
  return chain;
}

void SpanTracer::clear() {
  records_.clear();
  index_.clear();
  dropped_ = 0;
}

void SpanTracer::save(snap::SectionWriter& w) const {
  w.u64(capacity_);
  w.u64(dropped_);
  w.u64(next_id_);
  w.u64(records_.size());
  for (const SpanRecord& rec : records_) {
    w.u64(rec.id);
    w.u64(rec.parent);
    w.time_delta(rec.start);
    w.b(rec.open());
    if (!rec.open()) w.time_delta(rec.end);
    w.str(rec.name);
    w.u8(static_cast<std::uint8_t>(rec.layer));
    w.u8(static_cast<std::uint8_t>(rec.level));
    w.b(rec.instant);
    w.u64(rec.args.size());
    for (const auto& [key, value] : rec.args) {
      w.str(key);
      w.str(value);
    }
  }
}

void SpanTracer::restore(snap::SectionReader& r) {
  records_.clear();
  index_.clear();
  capacity_ = static_cast<std::size_t>(r.u64());
  dropped_ = r.u64();
  next_id_ = r.u64();
  // Smallest record: id, parent, start, open flag, name length, layer,
  // level, instant flag, arg count (see save()).
  const std::uint64_t n =
      r.entry_count(8 + 8 + 8 + 1 + 8 + 1 + 1 + 1 + 8, "OBSS span");
  records_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    SpanRecord rec;
    rec.id = r.u64();
    rec.parent = r.u64();
    rec.start = r.time_delta();
    const bool open = r.b();
    rec.end = open ? sim::Time::max() : r.time_delta();
    rec.name = r.str();
    rec.layer = static_cast<lpc::Layer>(r.u8());
    rec.level = static_cast<sim::TraceLevel>(r.u8());
    rec.instant = r.b();
    const std::uint64_t n_args =
        r.entry_count(8 + 8, "OBSS span arg");  // two string lengths
    rec.args.reserve(static_cast<std::size_t>(n_args));
    for (std::uint64_t a = 0; a < n_args; ++a) {
      const std::string key = r.str();
      rec.args.emplace_back(key, r.str());
    }
    if (open) rec.args.emplace_back("restored", "true");
    index_.emplace(rec.id, records_.size());
    records_.push_back(std::move(rec));
  }
}

}  // namespace aroma::obs

#include "lpc/miner.hpp"

namespace aroma::lpc {

SpanIssueMiner::SpanIssueMiner(obs::SpanTracer& spans, IssueLog& log)
    : spans_(spans), log_(log) {
  spans_.set_hook(
      [this](const obs::SpanRecord& rec) { on_record(rec); });
}

SpanIssueMiner::~SpanIssueMiner() { spans_.set_hook({}); }

void SpanIssueMiner::check_drops() {
  if (drop_warned_ || spans_.dropped() == 0) return;
  drop_warned_ = true;
  Issue issue;
  issue.description = "span buffer dropped " +
                      std::to_string(spans_.dropped()) +
                      " records; the trace is capped and must not be "
                      "trusted as complete";
  issue.entity = "obs.spans";
  issue.layer = Layer::kResource;  // a diagnostics-capacity problem
  issue.classified = false;
  issue.severity = 0.45;
  log_.add(std::move(issue));
  ++mined_;
}

void SpanIssueMiner::on_record(const obs::SpanRecord& record) {
  check_drops();
  if (record.level < sim::TraceLevel::kWarn) return;
  // The same event name recurring is one issue, not many.
  if (++seen_[record.name] > 1) {
    ++deduplicated_;
    return;
  }
  Issue issue;
  issue.description = record.name;
  bool classify = false;
  for (const auto& [key, value] : record.args) {
    issue.description += " " + key + "=" + value;
    classify = classify || key == "classify";
  }
  issue.entity = record.name;
  if (classify) {
    classifier_.assign(issue);  // layer from the text, not the emitter
  } else {
    issue.layer = record.layer;  // declared by the emitter, not guessed
    issue.classified = false;
  }
  issue.severity = record.level == sim::TraceLevel::kError ? 0.8 : 0.45;
  log_.add(std::move(issue));
  ++mined_;
}

std::map<Layer, std::size_t> SpanIssueMiner::layer_counts() const {
  std::map<Layer, std::size_t> out;
  for (const Issue& i : log_.issues()) ++out[i.layer];
  return out;
}

}  // namespace aroma::lpc

// Span-to-issue mining: the model watching a live system.
//
// Components emit warning/error span instants when something
// layer-relevant happens (retry limits, hijack attempts, depleted
// batteries, failed discovery), each tagged with the LPC layer its emitter
// belongs to. The miner subscribes to a world's span tracer and
// accumulates an IssueLog — so a running simulation produces exactly the
// layer-tagged issue inventory the paper's model was designed to organize.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "lpc/issue.hpp"
#include "obs/span.hpp"

namespace aroma::lpc {

/// Consumes obs::SpanTracer records (warnings and errors). The layer comes
/// straight off the record — the emitting component declared it — so no
/// vocabulary guessing is involved, and issues survive the span buffer's
/// capacity cap because the hook sees instants past it.
///
/// Two exceptions to "the emitter declared the layer": a record carrying a
/// "classify" arg (e.g. a watchdog fire, whose layer depends on what the
/// anomaly turned out to be) is routed through the IssueClassifier, which
/// assigns the layer from the record's text. And when the span buffer has
/// dropped records, the miner raises one warning issue itself — a capped
/// trace must never be silently trusted as complete.
class SpanIssueMiner {
 public:
  /// Installs itself as the span tracer's hook; the tracer must outlive
  /// the miner. Records below kWarn are ignored.
  SpanIssueMiner(obs::SpanTracer& spans, IssueLog& log);
  ~SpanIssueMiner();
  SpanIssueMiner(const SpanIssueMiner&) = delete;
  SpanIssueMiner& operator=(const SpanIssueMiner&) = delete;

  std::uint64_t mined() const { return mined_; }
  std::uint64_t deduplicated() const { return deduplicated_; }

  /// Raises the spans-dropped warning issue if the tracer has dropped
  /// records and it was not raised yet. Runs on every hooked record too;
  /// call this once more at end of run in case drops happened after the
  /// last warning-level record.
  void check_drops();

  /// Per-layer counts of mined issues.
  std::map<Layer, std::size_t> layer_counts() const;

 private:
  void on_record(const obs::SpanRecord& record);

  obs::SpanTracer& spans_;
  IssueLog& log_;
  IssueClassifier classifier_;
  std::map<std::string, std::uint64_t> seen_;  // event name -> count
  std::uint64_t mined_ = 0;
  std::uint64_t deduplicated_ = 0;
  bool drop_warned_ = false;
};

}  // namespace aroma::lpc

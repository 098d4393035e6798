// Issue records and the layer classifier.
//
// The model's stated purpose: "properly classify issues raised during
// discussion and provide needed context." The classifier scores an issue's
// free text against a per-layer vocabulary (seeded from the paper's own
// layer discussions) and assigns the best-scoring layer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lpc/layers.hpp"

namespace aroma::lpc {

struct Issue {
  std::uint64_t id = 0;
  std::string description;
  Layer layer = Layer::kEnvironment;
  double severity = 0.5;          // 0 cosmetic .. 1 blocks the purpose
  std::string entity;             // which entity raised it (optional)
  bool classified = false;        // layer assigned by classifier vs author
};

struct Classification {
  Layer layer;
  double confidence;              // margin-based, 0..1
  std::array<double, 5> scores;   // per-layer raw scores
};

/// Keyword-vocabulary classifier. Deterministic and dependency-free — the
/// goal is a faithful, inspectable realization of "place issues in their
/// appropriate context", not NLP.
class IssueClassifier {
 public:
  /// Constructs with the built-in vocabulary distilled from the paper.
  IssueClassifier();

  /// Adds a domain-specific term (e.g. from a project glossary).
  void add_term(Layer layer, std::string term, double weight = 1.0);

  Classification classify(std::string_view description) const;

  /// Classifies and fills in the issue's layer field.
  void assign(Issue& issue) const;

  std::size_t vocabulary_size() const { return terms_.size(); }

 private:
  struct Term {
    std::string text;   // lowercase
    Layer layer;
    double weight;
  };
  std::vector<Term> terms_;
};

/// An issue log that accumulates findings and reports per-layer counts —
/// the bookkeeping a design discussion would keep against the model.
class IssueLog {
 public:
  std::uint64_t add(Issue issue);
  const std::vector<Issue>& issues() const { return issues_; }
  std::vector<const Issue*> at_layer(Layer layer) const;
  std::size_t count_at(Layer layer) const;
  double total_severity_at(Layer layer) const;

 private:
  std::vector<Issue> issues_;
  std::uint64_t next_id_ = 1;
};

}  // namespace aroma::lpc

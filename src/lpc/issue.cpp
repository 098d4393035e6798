#include "lpc/issue.hpp"

#include <algorithm>
#include <cctype>

namespace aroma::lpc {

namespace {
std::string lowercase(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}
}  // namespace

IssueClassifier::IssueClassifier() {
  const auto add_all = [this](Layer layer,
                              std::initializer_list<const char*> words,
                              double weight = 1.0) {
    for (const char* w : words) add_term(layer, w, weight);
  };

  add_all(Layer::kEnvironment,
          {"interference", "2.4 ghz", "radio band", "background noise",
           "ambient", "acoustic", "out of range", "ranging", "coverage",
           "temperature", "lighting", "crowded", "social", "cubicle",
           "subway", "outdoor", "weather", "obstacle", "environment"});
  add_all(Layer::kPhysical,
          {"hardware", "battery", "antenna", "bandwidth", "bitrate",
           "transceiver", "wireless adapter", "pcmcia", "button", "reach",
           "proximity", "ergonomic", "weight", "biometric", "body",
           "physically", "screen size", "lamp", "cable", "voice signal",
           "speech recognition accuracy", "acuity", "motor"});
  add_all(Layer::kResource,
          {"operating system", "api", "protocol stack", "memory", "storage",
           "jvm", "java", "jini", "vnc", "lookup service", "tcp",
           "self-configur", "speaks", "language", "english", "skill",
           "faculty", "training", "education", "window system", "toolkit",
           "driver", "configuration", "install", "administrator",
           "troubleshoot", "diagnos", "single-threaded", "responsive",
           // Fleet vocabulary: a dead worker process or a stalled control
           // plane is an infrastructure (resource-layer) failure.
           "worker process", "heartbeat", "checkpoint", "migration",
           "control plane",
           // Service-tier vocabulary: an overloaded registrar shedding
           // lookups is degraded infrastructure, not a user-level issue.
           "registrar", "admission", "shed", "overload", "federation",
           "delegation", "query cache", "session gateway"});
  add_all(Layer::kAbstract,
          {"mental model", "confus", "session", "hijack", "state",
           "workflow", "steps", "on-line help", "documentation", "intuitive",
           "surprise", "icon", "feedback", "both clients", "forget",
           "wrong order", "relinquish", "conceptual burden", "expectation",
           "metaphor", "interaction model", "consisten"});
  add_all(Layer::kIntentional,
          {"goal", "purpose", "requirement", "intention", "needs of",
           "adoption", "market", "harmony", "use case", "value",
           "motivation", "commercial product", "research prototype",
           "superior product", "why it was created", "casual user"});
}

void IssueClassifier::add_term(Layer layer, std::string term, double weight) {
  terms_.push_back(Term{lowercase(term), layer, weight});
}

Classification IssueClassifier::classify(std::string_view description) const {
  const std::string text = lowercase(description);
  Classification c{};
  c.scores = {0, 0, 0, 0, 0};
  for (const Term& t : terms_) {
    if (text.find(t.text) != std::string::npos) {
      c.scores[static_cast<std::size_t>(t.layer)] += t.weight;
    }
  }
  double best = -1.0;
  double second = 0.0;
  Layer best_layer = Layer::kAbstract;  // default bucket for untagged issues
  for (Layer l : kAllLayers) {
    const double s = c.scores[static_cast<std::size_t>(l)];
    if (s > best) {
      second = best < 0.0 ? 0.0 : best;
      best = s;
      best_layer = s > 0.0 ? l : best_layer;
    } else if (s > second) {
      second = s;
    }
  }
  c.layer = best_layer;
  c.confidence = best > 0.0 ? (best - second) / best : 0.0;
  return c;
}

void IssueClassifier::assign(Issue& issue) const {
  const Classification c = classify(issue.description);
  issue.layer = c.layer;
  issue.classified = true;
}

std::uint64_t IssueLog::add(Issue issue) {
  issue.id = next_id_++;
  issues_.push_back(std::move(issue));
  return issues_.back().id;
}

std::vector<const Issue*> IssueLog::at_layer(Layer layer) const {
  std::vector<const Issue*> out;
  for (const auto& i : issues_) {
    if (i.layer == layer) out.push_back(&i);
  }
  return out;
}

std::size_t IssueLog::count_at(Layer layer) const {
  return at_layer(layer).size();
}

double IssueLog::total_severity_at(Layer layer) const {
  double total = 0.0;
  for (const auto* i : at_layer(layer)) total += i->severity;
  return total;
}

}  // namespace aroma::lpc

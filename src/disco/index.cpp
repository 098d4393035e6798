#include "disco/index.hpp"

#include <algorithm>

namespace aroma::disco {

std::string ServiceIndex::attr_term(const std::string& key,
                                    const std::string& value) {
  std::string t;
  t.reserve(2 + key.size() + 1 + value.size());
  t += "a:";
  t += key;
  t += '\x1f';
  t += value;
  return t;
}

std::string ServiceIndex::type_term(const std::string& prefix) {
  return "t:" + prefix;
}

std::vector<std::string> ServiceIndex::terms_for(
    const ServiceDescription& desc) {
  std::vector<std::string> terms;
  // A template type T matches types equal to T or starting with T + "/",
  // so each registration posts under its full type and every '/'-boundary
  // prefix: "projector/display" -> "projector", "projector/display".
  for (std::size_t i = 0; i < desc.type.size(); ++i) {
    if (desc.type[i] == '/') {
      terms.push_back(type_term(desc.type.substr(0, i)));
    }
  }
  if (!desc.type.empty()) terms.push_back(type_term(desc.type));
  for (const auto& [k, v] : desc.attributes) {
    terms.push_back(attr_term(k, v));
  }
  return terms;
}

void ServiceIndex::add_postings(const ServiceDescription& desc) {
  for (const std::string& term : terms_for(desc)) {
    std::vector<ServiceId>& list = postings_[term];
    const auto it = std::lower_bound(list.begin(), list.end(), desc.id);
    if (it == list.end() || *it != desc.id) list.insert(it, desc.id);
  }
}

void ServiceIndex::remove_postings(const ServiceDescription& desc) {
  for (const std::string& term : terms_for(desc)) {
    auto pit = postings_.find(term);
    if (pit == postings_.end()) continue;
    std::vector<ServiceId>& list = pit->second;
    const auto it = std::lower_bound(list.begin(), list.end(), desc.id);
    if (it != list.end() && *it == desc.id) list.erase(it);
    if (list.empty()) postings_.erase(pit);
  }
}

void ServiceIndex::insert(const ServiceDescription& desc) {
  auto it = services_.find(desc.id);
  if (it != services_.end()) {
    remove_postings(it->second);
    it->second = desc;
  } else {
    it = services_.emplace(desc.id, desc).first;
  }
  add_postings(it->second);
}

void ServiceIndex::erase(ServiceId id) {
  auto it = services_.find(id);
  if (it == services_.end()) return;
  remove_postings(it->second);
  services_.erase(it);
}

void ServiceIndex::clear() {
  services_.clear();
  postings_.clear();
}

const ServiceDescription* ServiceIndex::find(ServiceId id) const {
  const auto it = services_.find(id);
  return it == services_.end() ? nullptr : &it->second;
}

std::vector<ServiceId> ServiceIndex::match_scan(
    const ServiceTemplate& tmpl) const {
  std::vector<ServiceId> out;
  for (const auto& [id, s] : services_) {
    if (tmpl.matches(s)) out.push_back(id);
  }
  return out;
}

std::vector<ServiceId> ServiceIndex::match(const ServiceTemplate& tmpl) const {
  // Gather the posting list of every template term. An absent term means
  // nothing can match.
  std::vector<const std::vector<ServiceId>*> lists;
  lists.reserve(tmpl.attributes.size() + 1);
  if (!tmpl.type.empty()) {
    const auto it = postings_.find(type_term(tmpl.type));
    if (it == postings_.end()) return {};
    lists.push_back(&it->second);
  }
  for (const auto& [k, v] : tmpl.attributes) {
    const auto it = postings_.find(attr_term(k, v));
    if (it == postings_.end()) return {};
    lists.push_back(&it->second);
  }
  if (lists.empty()) {
    // Empty template matches everything.
    std::vector<ServiceId> out;
    out.reserve(services_.size());
    for (const auto& [id, s] : services_) out.push_back(id);
    return out;
  }
  // Intersect smallest-first: seed with the shortest list, then probe each
  // remaining list with a galloping lower_bound per candidate.
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  std::vector<ServiceId> out = *lists.front();
  for (std::size_t i = 1; i < lists.size() && !out.empty(); ++i) {
    const std::vector<ServiceId>& next = *lists[i];
    std::vector<ServiceId> kept;
    kept.reserve(out.size());
    auto cursor = next.begin();
    for (const ServiceId id : out) {
      cursor = std::lower_bound(cursor, next.end(), id);
      if (cursor == next.end()) break;
      if (*cursor == id) kept.push_back(id);
    }
    out = std::move(kept);
  }
  return out;
}

}  // namespace aroma::disco

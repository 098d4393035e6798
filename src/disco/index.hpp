// Inverted attribute index over registered services.
//
// Registrars used to answer every lookup with a linear scan over all
// registrations — fine for a conference room, hopeless for the paper's
// "environment saturated with computing" once a site registers tens of
// thousands of services. The index keeps one sorted posting list of
// service ids per (attribute key, value) term and per '/'-boundary type
// prefix; a template lookup intersects its term postings smallest-first.
//
// The scalar scan (`match_scan`) is retained as the reference oracle:
// property tests and the disco bench require the indexed result to be
// bit-identical to it (same ids, same ascending order) on every template.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "disco/service.hpp"

namespace aroma::disco {

class ServiceIndex {
 public:
  /// Inserts (or replaces, by id) a description. `desc.id` must be set.
  void insert(const ServiceDescription& desc);
  /// Removes a registration; no-op for unknown ids.
  void erase(ServiceId id);
  void clear();

  std::size_t size() const { return services_.size(); }
  const ServiceDescription* find(ServiceId id) const;
  /// Ascending-id view of every registration (iteration order matches the
  /// pre-index registrar scan, which walked a std::map).
  const std::map<ServiceId, ServiceDescription>& services() const {
    return services_;
  }

  /// Indexed match: ids of all registrations the template matches, in
  /// ascending id order. Bit-identical to `match_scan`.
  std::vector<ServiceId> match(const ServiceTemplate& tmpl) const;

  /// Reference oracle: the original O(n) scan over the ordered map.
  std::vector<ServiceId> match_scan(const ServiceTemplate& tmpl) const;

  /// Posting-list terms for a description (exposed for tests).
  static std::vector<std::string> terms_for(const ServiceDescription& desc);

 private:
  static std::string attr_term(const std::string& key,
                               const std::string& value);
  static std::string type_term(const std::string& prefix);
  void add_postings(const ServiceDescription& desc);
  void remove_postings(const ServiceDescription& desc);

  std::map<ServiceId, ServiceDescription> services_;
  // term -> ascending service ids. Terms are "a:" key '\x1f' value for
  // attributes and "t:" prefix for every '/'-boundary type prefix.
  std::unordered_map<std::string, std::vector<ServiceId>> postings_;
};

}  // namespace aroma::disco

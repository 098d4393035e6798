// Service descriptions and attribute templates (the Jini entry model).
//
// A service registers a description: a type string (e.g. "projector/display")
// plus free-form attribute key/value pairs. Clients look services up with a
// template: a type prefix and a set of attributes that must all match.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/serialize.hpp"

namespace aroma::disco {

using ServiceId = std::uint64_t;

struct ServiceDescription {
  ServiceId id = 0;
  std::string type;                         // hierarchical, '/'-separated
  net::Endpoint endpoint;                   // where the service listens
  std::map<std::string, std::string> attributes;

  void serialize(net::ByteWriter& w) const;
  static ServiceDescription deserialize(net::ByteReader& r);
};

/// A lookup template: empty type matches everything; a non-empty type
/// matches any service whose type equals it or starts with it + "/". All
/// template attributes must be present with equal values.
struct ServiceTemplate {
  std::string type;
  std::map<std::string, std::string> attributes;

  bool matches(const ServiceDescription& s) const;

  void serialize(net::ByteWriter& w) const;
  static ServiceTemplate deserialize(net::ByteReader& r);
};

/// A registrar's registrations by id. A lookup scans it in ascending id
/// order, so replies list their matches in that order.
using ServiceTable = std::map<ServiceId, ServiceDescription>;

/// Appends a lookup reply body: the number of registrations in `services`
/// that `tmpl` matches, then each of them in ascending id order.
void write_matches(net::ByteWriter& w, const ServiceTemplate& tmpl,
                   const ServiceTable& services);

}  // namespace aroma::disco

#include "disco/service.hpp"

namespace aroma::disco {

void ServiceDescription::serialize(net::ByteWriter& w) const {
  w.u64(id);
  w.str(type);
  w.u64(endpoint.node);
  w.u16(endpoint.port);
  w.u32(static_cast<std::uint32_t>(attributes.size()));
  for (const auto& [k, v] : attributes) {
    w.str(k);
    w.str(v);
  }
}

ServiceDescription ServiceDescription::deserialize(net::ByteReader& r) {
  ServiceDescription s;
  s.id = r.u64();
  s.type = r.str();
  s.endpoint.node = r.u64();
  s.endpoint.port = r.u16();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string k = r.str();
    std::string v = r.str();
    s.attributes.emplace(std::move(k), std::move(v));
  }
  return s;
}

bool ServiceTemplate::matches(const ServiceDescription& s) const {
  if (!type.empty()) {
    if (s.type != type &&
        !(s.type.size() > type.size() && s.type.compare(0, type.size(), type) == 0 &&
          s.type[type.size()] == '/')) {
      return false;
    }
  }
  for (const auto& [k, v] : attributes) {
    auto it = s.attributes.find(k);
    if (it == s.attributes.end() || it->second != v) return false;
  }
  return true;
}

void ServiceTemplate::serialize(net::ByteWriter& w) const {
  w.str(type);
  w.u32(static_cast<std::uint32_t>(attributes.size()));
  for (const auto& [k, v] : attributes) {
    w.str(k);
    w.str(v);
  }
}

ServiceTemplate ServiceTemplate::deserialize(net::ByteReader& r) {
  ServiceTemplate t;
  t.type = r.str();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string k = r.str();
    std::string v = r.str();
    t.attributes.emplace(std::move(k), std::move(v));
  }
  return t;
}

void write_matches(net::ByteWriter& w, const ServiceTemplate& tmpl,
                   const ServiceTable& services) {
  std::uint32_t n = 0;
  for (const auto& [id, s] : services) n += tmpl.matches(s) ? 1 : 0;
  w.u32(n);
  for (const auto& [id, s] : services) {
    if (tmpl.matches(s)) s.serialize(w);
  }
}

}  // namespace aroma::disco

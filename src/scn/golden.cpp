#include "scn/golden.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "scn/ast.hpp"

namespace aroma::scn {

namespace {

/// Whole-token unsigned parse; clears *ok on anything else.
std::uint64_t parse_u64(const std::string& tok, int base, bool* ok) {
  std::uint64_t v = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v, base);
  if (tok.empty() || ec != std::errc() || ptr != end) *ok = false;
  return v;
}

/// "0x" + exactly 16 hex digits.
std::uint64_t parse_hex(const std::string& tok, bool* ok) {
  if (tok.size() != 18 || tok.compare(0, 2, "0x") != 0) {
    *ok = false;
    return 0;
  }
  return parse_u64(tok.substr(2), 16, ok);
}

}  // namespace

const FleetGolden* Goldens::fleet(std::string_view scenario,
                                  std::uint64_t seed,
                                  std::size_t shards) const {
  for (const FleetGolden& g : fleets) {
    if (g.scenario == scenario && g.seed == seed && g.shards == shards) {
      return &g;
    }
  }
  return nullptr;
}

Goldens read_goldens(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ScnError("cannot read goldens file '" + path + "'");
  Goldens out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::vector<std::string> tok;
    for (std::string t; fields >> t;) tok.push_back(t);
    if (tok.empty()) continue;
    bool ok = true;
    if (tok[0] == "fleet" && tok.size() == 6) {
      FleetGolden g;
      g.scenario = tok[1];
      g.seed = parse_u64(tok[2], 10, &ok);
      g.shards = static_cast<std::size_t>(parse_u64(tok[3], 10, &ok));
      g.fleet_fp = parse_hex(tok[4], &ok);
      g.events = parse_u64(tok[5], 10, &ok);
      if (ok) out.fleets.push_back(std::move(g));
    } else if (tok[0] == "shard" && tok.size() == 5) {
      ShardGolden g;
      g.scenario = tok[1];
      g.seed = parse_u64(tok[2], 10, &ok);
      g.shard = static_cast<std::size_t>(parse_u64(tok[3], 10, &ok));
      g.fp = parse_hex(tok[4], &ok);
      if (ok) out.shards.push_back(std::move(g));
    } else {
      ok = false;
    }
    if (!ok) {
      throw ScnError(path + ":" + std::to_string(lineno) +
                         ": malformed golden record",
                     lineno, 1);
    }
  }
  return out;
}

}  // namespace aroma::scn

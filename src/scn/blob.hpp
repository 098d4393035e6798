// The compiled scenario blob: a compact, versioned, CRC-checked binary
// artifact the fleet loads and executes directly — no recompile per
// scenario.
//
// The container is snap's sectioned framing (src/snap/format.hpp) under
// its own identity:
//
//   magic "AROMSCEN", version 2, then the standard section table:
//     SCNH  (required)  name, topology, pass mask, pass statistics
//     ENTS  (required)  entity declarations (profiles by name, exprs)
//     BULD  (required)  registrars / projectors / displays / goals
//     TRAF  (required)  traffic declarations + train-lowering marks
//     PHAS  (required)  the phase timeline
//
// Expressions serialize as postfix opcode streams (source positions are
// deliberately dropped — a blob carries no provenance, which is what makes
// compile-twice and dump-recompile byte-identical). Readers skip unknown
// sections flagged kSectionOptional and hard-fail on unknown required
// ones, mirroring snap's forward-compat discipline; truncation, CRC
// damage, and version mismatches all throw before any world state exists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "scn/ast.hpp"
#include "snap/format.hpp"

namespace aroma::scn {

inline constexpr char kScnMagic[8] = {'A', 'R', 'O', 'M', 'S', 'C', 'E', 'N'};
inline constexpr std::uint32_t kScnVersion = 2;

inline constexpr std::uint32_t kTagHeader = snap::tag4("SCNH");
inline constexpr std::uint32_t kTagEntities = snap::tag4("ENTS");
inline constexpr std::uint32_t kTagBuild = snap::tag4("BULD");
inline constexpr std::uint32_t kTagTraffic = snap::tag4("TRAF");
inline constexpr std::uint32_t kTagPhases = snap::tag4("PHAS");

/// Serializes a validated scenario. Deterministic: identical IR yields
/// identical bytes.
std::vector<std::uint8_t> encode(const Scenario& s);

/// Parses and fully validates a blob into IR without touching any world
/// state (rejection is always side-effect free). Throws ScnError on
/// truncation, bad magic, version mismatch, CRC damage, a missing or
/// unknown required section, a malformed payload, or a scenario the
/// compiler's validate pass rejects (scn/passes.hpp: unknown profile or
/// persona, non-positive topology, a broken structural requirement).
Scenario decode(std::span<const std::uint8_t> blob);

}  // namespace aroma::scn

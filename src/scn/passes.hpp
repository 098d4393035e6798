// The scenario compiler's pass pipeline.
//
// compile() (scn/compiler.hpp) runs these over the parsed IR in order:
//
//   1. validate  — always on. Resolves every entity reference (line/col
//      diagnostics on unknown names), checks profiles and personas against
//      the phys/user preset tables, enforces structural requirements
//      (present goals need a registrar, a projector, and a display on the
//      actor; slides traffic needs a display; ping destinations must be
//      singletons), bounds-checks constant positions against the topology,
//      and rejects constant division/modulo by zero.
//
//   2. fold      — constant-folds every sub-expression with no free
//      variables (`55 + 10 * 2` but not `10 * shard`), counting eliminated
//      operator nodes. Idempotent: folding a folded tree is a no-op.
//
//   3. trains    — lowers eligible group ping traffic (constant period,
//      constant member count > 1, constant payload) to pre-scheduled event
//      trains: at run time one generator per tick parks every member's
//      send at the same timestamp, which the kernel's same-time train
//      batching absorbs (sim/event_queue.hpp "Trains"). Staggered traffic
//      (a period using `i`) is left as per-member periodic timers — its
//      members never share timestamps, so there is nothing to absorb.
//
//   4. strategy  — per-shard-class placement selection from the cost
//      model (scn/cost.hpp). Shard classes are derived from the `shard %
//      C` constants appearing in the scenario's expressions; each class
//      gets an estimated event cost so the fleet runner can launch
//      heavier classes first. Also decides the kernel train-batching knob
//      (on exactly when the trains pass lowered something).
//
// Passes 2-4 can be disabled (PassOptions) to produce a reference compile
// — the passes-off blob the bench measures absorption against.
#pragma once

#include <cstdint>

#include "scn/ast.hpp"
#include "scn/cost.hpp"

namespace aroma::scn {

/// Scenario::pass_mask bits, recorded in the blob header.
inline constexpr std::uint32_t kPassValidate = 1u << 0;
inline constexpr std::uint32_t kPassFold = 1u << 1;
inline constexpr std::uint32_t kPassTrains = 1u << 2;
inline constexpr std::uint32_t kPassStrategy = 1u << 3;

struct PassOptions {
  bool fold = true;
  bool trains = true;
  bool strategy = true;
  CostModel cost = CostModel::defaults();
};

/// Pass 1 alone: resolves entity references, checks profiles, personas,
/// topology and structure, and fills default phases. Throws ScnError on the
/// first failure. scn::decode runs it on every blob.
void validate(Scenario& s);

/// Runs the pipeline in place. Throws ScnError (with source position where
/// available) on the first validation failure.
void run_passes(Scenario& s, const PassOptions& options = {});

}  // namespace aroma::scn

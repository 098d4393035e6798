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
//      and rejects constant division/modulo by zero. The runtime holds
//      shard- and member-dependent values to the same rules when it
//      instantiates a shard (scn/runtime.hpp).
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
//      Lowering changes behaviour, not only the scheduling
//      representation: a generator tick queues its sends at the instant
//      it runs, so they take that instant's newest sequence numbers and
//      run after timers other flows queued a period earlier. Same-instant
//      order, and with it the fingerprint, can differ from the passes-off
//      compile (conference_hall and campus_mesh do at some seeds and
//      shards). Each compile is deterministic and worker-count-invariant
//      on its own, and the goldens pin the full pipeline.
//
// Passes 2-3 can be disabled (PassOptions) to produce a reference compile
// — the passes-off blob tests measure absorption against. The runtime
// turns on the kernel's train batching exactly when the trains pass
// lowered some flow (scn::kernel_trains).
#pragma once

#include <cstdint>

#include "scn/ast.hpp"

namespace aroma::scn {

/// Scenario::pass_mask bits, recorded in the blob header.
inline constexpr std::uint32_t kPassValidate = 1u << 0;
inline constexpr std::uint32_t kPassFold = 1u << 1;
inline constexpr std::uint32_t kPassTrains = 1u << 2;

/// Optimizing passes for run_passes and scn::compile (validation always
/// runs). The all-off configuration is the reference compile tests
/// measure train absorption against.
struct PassOptions {
  bool fold = true;
  bool trains = true;
};

/// Pass 1 alone: resolves entity references, checks profiles, personas,
/// topology and structure, and fills default phases. Throws ScnError on the
/// first failure. scn::decode runs it on every blob.
void validate(Scenario& s);

/// Runs the pipeline in place. Throws ScnError (with source position where
/// available) on the first validation failure.
void run_passes(Scenario& s, const PassOptions& options = {});

}  // namespace aroma::scn

// Scenario compiler entry points: text -> (parse -> passes -> encode) ->
// blob, plus the canonical dump renderer.
//
// Determinism contract:
//   * compile(source) twice yields byte-identical blobs (no timestamps,
//     no source hashes, no host state in the artifact),
//   * dump(decode(blob)) renders canonical scenario text that reparses to
//     the same IR, so dump -> compile -> dump is a fixpoint: one
//     dump/recompile round converges and further rounds are byte-stable.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "scn/ast.hpp"
#include "scn/passes.hpp"

namespace aroma::scn {

/// Compiles scenario text to an executable blob. Throws ScnError with
/// line/col diagnostics on parse or validation failure.
std::vector<std::uint8_t> compile(std::string_view source,
                                  const std::string& filename = "<scn>",
                                  const PassOptions& options = {});

/// Compiles a `.scn` file.
std::vector<std::uint8_t> compile_file(const std::string& path,
                                       const PassOptions& options = {});

/// Renders a scenario as canonical DSL text (defaults made explicit,
/// expressions fully parenthesized, round-trip-exact number formatting).
std::string dump(const Scenario& s);

}  // namespace aroma::scn

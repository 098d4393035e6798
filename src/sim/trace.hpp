// Severity levels shared by the structured observation paths: span
// records (obs/span.hpp), their checkpoint section and the JSONL exporter.
#pragma once

#include <cstdint>
#include <string_view>

namespace aroma::sim {

enum class TraceLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError };

std::string_view to_string(TraceLevel level);

}  // namespace aroma::sim

#include "sim/trace.hpp"

namespace aroma::sim {

std::string_view to_string(TraceLevel level) {
  switch (level) {
    case TraceLevel::kDebug: return "DEBUG";
    case TraceLevel::kInfo: return "INFO";
    case TraceLevel::kWarn: return "WARN";
    case TraceLevel::kError: return "ERROR";
  }
  return "?";
}

}  // namespace aroma::sim

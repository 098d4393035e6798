#include "scn/compiler.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "scn/blob.hpp"
#include "scn/parser.hpp"

namespace aroma::scn {

namespace {

/// Round-trip-exact number rendering: integers as digits, everything else
/// with 17 significant digits (enough to reproduce any double bit-exactly
/// on reparse).
std::string canonical_num(double v) {
  if (std::floor(v) == v && std::fabs(v) < 9e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string render(const Expr& e);

// "(lhs op rhs)", appended left to right.
std::string render_binary(const Expr& e, const char* op) {
  std::string out = "(";
  out += render(*e.lhs);
  out += op;
  out += render(*e.rhs);
  out += ')';
  return out;
}

std::string render(const Expr& e) {
  switch (e.op) {
    case ExprOp::kNum:
      return canonical_num(e.value);
    case ExprOp::kShard:
      return "shard";
    case ExprOp::kIndex:
      return "i";
    case ExprOp::kAdd:
      return render_binary(e, " + ");
    case ExprOp::kSub:
      return render_binary(e, " - ");
    case ExprOp::kMul:
      return render_binary(e, " * ");
    case ExprOp::kDiv:
      return render_binary(e, " / ");
    case ExprOp::kMod:
      return render_binary(e, " % ");
    case ExprOp::kNeg: {
      std::string out = "(-";
      out += render(*e.lhs);
      out += ')';
      return out;
    }
  }
  throw ScnError("corrupt expression opcode in dump");
}

}  // namespace

std::vector<std::uint8_t> compile(std::string_view source,
                                  const std::string& filename,
                                  const PassOptions& options) {
  Scenario s = parse(source, filename);
  run_passes(s, options);
  return encode(s);
}

std::vector<std::uint8_t> compile_file(const std::string& path,
                                       const PassOptions& options) {
  Scenario s = parse_file(path);
  run_passes(s, options);
  return encode(s);
}

std::string dump(const Scenario& s) {
  std::ostringstream out;
  out << "scenario " << s.name << " {\n";
  out << "  topology " << canonical_num(s.topo_w) << " x "
      << canonical_num(s.topo_h) << ";\n";
  for (const EntityDecl& e : s.entities) {
    if (e.is_group) {
      out << "  group " << e.name << " profile " << e.profile << " count "
          << render(*e.count);
    } else {
      out << "  entity " << e.name << " profile " << e.profile;
    }
    out << " at (" << render(*e.pos_x) << ", " << render(*e.pos_y)
        << ") channel " << render(*e.channel) << ";\n";
  }
  for (const RegistrarDecl& r : s.registrars) {
    out << "  registrar on " << r.on.name << ";\n";
  }
  for (const ProjectorDecl& p : s.projectors) {
    out << "  projector on " << p.on.name << ";\n";
  }
  for (const DisplayDecl& d : s.displays) {
    out << "  display on " << d.on.name << " size " << render(*d.width)
        << " x " << render(*d.height) << " deck " << render(*d.deck_seed)
        << ";\n";
  }
  for (const GoalDecl& g : s.goals) {
    out << "  goal " << (g.kind == GoalKind::kPresent ? "present" : "discover")
        << " actor " << g.actor.name << " persona " << g.persona << ";\n";
  }
  for (const TrafficDecl& t : s.traffic) {
    if (t.kind == TrafficKind::kPing) {
      out << "  traffic ping from " << t.from.name << " to " << t.to.name
          << " period " << render(*t.period) << " payload "
          << render(*t.payload) << ";\n";
    } else {
      out << "  traffic slides on " << t.from.name << " period "
          << render(*t.period) << ";\n";
    }
  }
  out << "  phase settle " << render(*s.phases.settle) << ";\n";
  out << "  phase meeting " << render(*s.phases.meeting) << ";\n";
  out << "  horizon " << render(*s.phases.horizon) << ";\n";
  out << "  drain " << render(*s.phases.drain) << ";\n";
  out << "}\n";
  return out.str();
}

}  // namespace aroma::scn

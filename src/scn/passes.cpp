#include "scn/passes.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "phys/profile.hpp"
#include "user/faculties.hpp"

namespace aroma::scn {

namespace {

/// The value of an expression with no free variables; nullopt otherwise.
std::optional<double> const_value(const Expr& e) {
  if (uses_shard(e) || uses_index(e)) return std::nullopt;
  return eval(e, EvalContext{});
}

[[noreturn]] void fail(const std::string& msg, int line, int col) {
  throw ScnError("line " + std::to_string(line) + ":" + std::to_string(col) +
                     ": " + msg,
                 line, col);
}

// ---------------------------------------------------------------------------
// validate

void check_zero_denominators(const Expr& e) {
  if (e.lhs != nullptr) check_zero_denominators(*e.lhs);
  if (e.rhs != nullptr) check_zero_denominators(*e.rhs);
  if (e.op == ExprOp::kDiv || e.op == ExprOp::kMod) {
    const auto d = const_value(*e.rhs);
    if (d.has_value() &&
        (e.op == ExprOp::kDiv ? *d == 0.0
                              : static_cast<std::int64_t>(*d) == 0)) {
      fail(e.op == ExprOp::kDiv ? "division by constant zero"
                                : "modulo by constant zero",
           e.line, e.col);
    }
  }
}

void resolve(const Scenario& s, EntityRef& ref) {
  for (std::size_t k = 0; k < s.entities.size(); ++k) {
    if (s.entities[k].name == ref.name) {
      ref.index = static_cast<int>(k);
      return;
    }
  }
  fail("unknown entity '" + ref.name + "'", ref.line, ref.col);
}

}  // namespace

void validate(Scenario& s) {
  if (s.topo_w <= 0 || s.topo_h <= 0) {
    throw ScnError("scenario '" + s.name +
                   "' must declare a positive topology");
  }
  if (s.entities.empty()) {
    throw ScnError("scenario '" + s.name + "' declares no entities");
  }
  if (s.phases.horizon == nullptr) {
    throw ScnError("scenario '" + s.name + "' must declare a horizon");
  }
  if (s.phases.settle == nullptr) s.phases.settle = Expr::num(3.0);
  if (s.phases.meeting == nullptr) s.phases.meeting = Expr::num(45.0);
  if (s.phases.drain == nullptr) s.phases.drain = Expr::num(2.0);

  std::set<std::string> names;
  for (const EntityDecl& e : s.entities) {
    if (!names.insert(e.name).second) {
      fail("duplicate entity name '" + e.name + "'", e.line, e.col);
    }
    phys::DeviceProfile profile;
    if (!phys::profiles::by_name(e.profile, &profile)) {
      fail("unknown device profile '" + e.profile + "'", e.line, e.col);
    }
    if (!profile.net.has_radio) {
      fail("profile '" + e.profile +
               "' has no radio; scenario entities must be reachable",
           e.line, e.col);
    }
    if (uses_index(*e.count)) {
      fail("group count cannot reference the member index 'i'", e.line, e.col);
    }
    const auto n = const_value(*e.count);
    if (n.has_value() && (*n < 0 || *n > 4096)) {
      fail("group count out of range [0, 4096]", e.line, e.col);
    }
    // Constant positions must land on the topology; shard/member-dependent
    // ones are checked at instantiation.
    const auto px = const_value(*e.pos_x);
    const auto py = const_value(*e.pos_y);
    if ((px.has_value() && (*px < 0 || *px > s.topo_w)) ||
        (py.has_value() && (*py < 0 || *py > s.topo_h))) {
      fail("entity '" + e.name + "' placed outside the topology", e.line,
           e.col);
    }
    check_zero_denominators(*e.count);
    check_zero_denominators(*e.pos_x);
    check_zero_denominators(*e.pos_y);
    check_zero_denominators(*e.channel);
  }

  for (RegistrarDecl& r : s.registrars) resolve(s, r.on);
  for (ProjectorDecl& p : s.projectors) resolve(s, p.on);
  for (DisplayDecl& d : s.displays) {
    resolve(s, d.on);
    check_zero_denominators(*d.width);
    check_zero_denominators(*d.height);
    check_zero_denominators(*d.deck_seed);
  }

  auto has_display_on = [&s](int entity) {
    return std::any_of(s.displays.begin(), s.displays.end(),
                       [entity](const DisplayDecl& d) {
                         return d.on.index == entity;
                       });
  };

  for (GoalDecl& g : s.goals) {
    resolve(s, g.actor);
    user::Faculties persona;
    if (!user::personas::by_name(g.persona, &persona)) {
      fail("unknown persona '" + g.persona + "'", g.line, g.col);
    }
    if (s.registrars.empty()) {
      fail("goal needs a registrar to discover services through", g.line,
           g.col);
    }
    if (g.kind == GoalKind::kPresent) {
      if (s.projectors.empty()) {
        fail("present goal needs a projector", g.line, g.col);
      }
      if (!has_display_on(g.actor.index)) {
        fail("present goal actor '" + g.actor.name +
                 "' has no display to project from",
             g.line, g.col);
      }
    }
  }

  for (TrafficDecl& t : s.traffic) {
    resolve(s, t.from);
    check_zero_denominators(*t.period);
    const auto period = const_value(*t.period);
    if (period.has_value() && *period <= 0) {
      fail("traffic period must be positive", t.from.line, t.from.col);
    }
    if (t.kind == TrafficKind::kPing) {
      resolve(s, t.to);
      if (s.entities[static_cast<std::size_t>(t.to.index)].is_group) {
        fail("ping destination '" + t.to.name +
                 "' must be a singleton entity, not a group",
             t.to.line, t.to.col);
      }
      check_zero_denominators(*t.payload);
      const auto payload = const_value(*t.payload);
      if (payload.has_value() && (*payload < 1 || *payload > 1400)) {
        fail("ping payload out of range [1, 1400] bytes", t.from.line,
             t.from.col);
      }
    } else {
      if (!has_display_on(t.from.index)) {
        fail("slides traffic on '" + t.from.name + "' needs a display there",
             t.from.line, t.from.col);
      }
    }
  }

  check_zero_denominators(*s.phases.settle);
  check_zero_denominators(*s.phases.meeting);
  check_zero_denominators(*s.phases.horizon);
  check_zero_denominators(*s.phases.drain);
  const auto settle = const_value(*s.phases.settle);
  const auto meeting = const_value(*s.phases.meeting);
  if (settle.has_value() && meeting.has_value() && *settle > *meeting) {
    throw ScnError("scenario '" + s.name + "': settle phase (" +
                   std::to_string(*settle) + "s) ends after the meeting (" +
                   std::to_string(*meeting) + "s)");
  }
  s.pass_mask |= kPassValidate;
}

namespace {

// ---------------------------------------------------------------------------
// fold

std::uint32_t op_nodes(const Expr& e) {
  std::uint32_t n = e.op == ExprOp::kNum || e.op == ExprOp::kShard ||
                            e.op == ExprOp::kIndex
                        ? 0
                        : 1;
  if (e.lhs != nullptr) n += op_nodes(*e.lhs);
  if (e.rhs != nullptr) n += op_nodes(*e.rhs);
  return n;
}

void fold_expr(std::unique_ptr<Expr>& e, std::uint32_t& folds) {
  if (e->lhs != nullptr) fold_expr(e->lhs, folds);
  if (e->rhs != nullptr) fold_expr(e->rhs, folds);
  if (e->op == ExprOp::kNum || e->op == ExprOp::kShard ||
      e->op == ExprOp::kIndex) {
    return;
  }
  if (uses_shard(*e) || uses_index(*e)) return;
  const std::uint32_t eliminated = op_nodes(*e);
  auto folded = Expr::num(eval(*e, EvalContext{}), e->line, e->col);
  e = std::move(folded);
  folds += eliminated;
}

void fold(Scenario& s) {
  auto run = [&s](std::unique_ptr<Expr>& e) { fold_expr(e, s.folds); };
  for (EntityDecl& e : s.entities) {
    run(e.count);
    run(e.pos_x);
    run(e.pos_y);
    run(e.channel);
  }
  for (DisplayDecl& d : s.displays) {
    run(d.width);
    run(d.height);
    run(d.deck_seed);
  }
  for (TrafficDecl& t : s.traffic) {
    run(t.period);
    if (t.payload != nullptr) run(t.payload);
  }
  run(s.phases.settle);
  run(s.phases.meeting);
  run(s.phases.horizon);
  run(s.phases.drain);
  s.pass_mask |= kPassFold;
}

// ---------------------------------------------------------------------------
// trains

void trains(Scenario& s) {
  for (TrafficDecl& t : s.traffic) {
    if (t.kind != TrafficKind::kPing) continue;
    const EntityDecl& src = s.entities[static_cast<std::size_t>(t.from.index)];
    const auto period = const_value(*t.period);
    const auto members = const_value(*src.count);
    const auto payload = const_value(*t.payload);
    if (period.has_value() && payload.has_value() && members.has_value() &&
        *members > 1) {
      t.train_lowered = true;
      ++s.trains_lowered;
    }
  }
  s.pass_mask |= kPassTrains;
}

}  // namespace

void run_passes(Scenario& s, const PassOptions& options) {
  validate(s);
  if (options.fold) fold(s);
  if (options.trains) trains(s);
}

}  // namespace aroma::scn

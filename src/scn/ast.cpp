#include "scn/ast.hpp"

#include <algorithm>
#include <cmath>

namespace aroma::scn {

double eval(const Expr& e, const EvalContext& ctx) {
  switch (e.op) {
    case ExprOp::kNum:
      return e.value;
    case ExprOp::kShard:
      return static_cast<double>(ctx.shard);
    case ExprOp::kIndex:
      return static_cast<double>(ctx.index);
    case ExprOp::kAdd:
      return eval(*e.lhs, ctx) + eval(*e.rhs, ctx);
    case ExprOp::kSub:
      return eval(*e.lhs, ctx) - eval(*e.rhs, ctx);
    case ExprOp::kMul:
      return eval(*e.lhs, ctx) * eval(*e.rhs, ctx);
    case ExprOp::kDiv: {
      const double r = eval(*e.rhs, ctx);
      if (r == 0.0) throw ScnError("division by zero", e.line, e.col);
      return eval(*e.lhs, ctx) / r;
    }
    case ExprOp::kMod: {
      const auto l = static_cast<std::int64_t>(eval(*e.lhs, ctx));
      const auto r = static_cast<std::int64_t>(eval(*e.rhs, ctx));
      if (r == 0) throw ScnError("modulo by zero", e.line, e.col);
      return static_cast<double>(l % r);
    }
    case ExprOp::kNeg:
      return -eval(*e.lhs, ctx);
  }
  throw ScnError("corrupt expression opcode");
}

namespace {
bool uses(const Expr& e, ExprOp var) {
  if (e.op == var) return true;
  if (e.lhs != nullptr && uses(*e.lhs, var)) return true;
  return e.rhs != nullptr && uses(*e.rhs, var);
}
}  // namespace

bool uses_shard(const Expr& e) { return uses(e, ExprOp::kShard); }
bool uses_index(const Expr& e) { return uses(e, ExprOp::kIndex); }

std::unique_ptr<Expr> clone(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->op = e.op;
  out->value = e.value;
  out->line = e.line;
  out->col = e.col;
  if (e.lhs != nullptr) out->lhs = clone(*e.lhs);
  if (e.rhs != nullptr) out->rhs = clone(*e.rhs);
  return out;
}

bool kernel_trains(const Scenario& s) {
  return std::any_of(s.traffic.begin(), s.traffic.end(),
                     [](const TrafficDecl& t) { return t.train_lowered; });
}

}  // namespace aroma::scn

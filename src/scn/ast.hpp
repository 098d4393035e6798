// Scenario DSL abstract syntax / intermediate representation.
//
// A `.scn` file is a declarative description of one pervasive-computing
// cell: entities placed on a 2-D topology, service roles bound to them,
// user goals, traffic, and the phase timeline. The parser lowers the text
// into the Scenario IR below; the pass pipeline (scn/passes.hpp) rewrites
// it; the blob encoder (scn/blob.hpp) serializes it; and the runtime
// (scn/runtime.hpp) instantiates a world from it in a fixed construction
// order.
//
// Expressions are tiny arithmetic trees over two free variables:
//   shard — the shard index of the instantiating fleet task,
//   i     — the member index within a `group` (0 for singleton entities).
// This is what lets one scenario text describe a heterogeneous fleet
// (`horizon 55 + 10 * (shard % 5)`) and staggered group traffic
// (`period 0.4 + 0.1 * i`) while staying fully deterministic: every value
// is a pure function of (scenario, shard, i).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace aroma::scn {

/// Any scenario-compiler failure: a parse error (with position), a
/// validation diagnostic, a malformed blob, or a runtime resolution
/// failure. Diagnostics render as "name.scn:LINE:COL: message".
class ScnError : public std::runtime_error {
 public:
  ScnError(std::string message, int line, int col)
      : std::runtime_error(std::move(message)), line_(line), col_(col) {}
  explicit ScnError(std::string message)
      : std::runtime_error(std::move(message)) {}

  /// 1-based source position; 0 when the error is not anchored to text.
  int line() const { return line_; }
  int col() const { return col_; }

 private:
  int line_ = 0;
  int col_ = 0;
};

// ---------------------------------------------------------------------------
// Expressions.

enum class ExprOp : std::uint8_t {
  kNum = 0,    // literal (value)
  kShard = 1,  // free variable: shard index
  kIndex = 2,  // free variable: group member index
  kAdd = 3,
  kSub = 4,
  kMul = 5,
  kDiv = 6,
  kMod = 7,  // integer modulo: (int64)l % (int64)r
  kNeg = 8,
};

struct Expr {
  ExprOp op = ExprOp::kNum;
  double value = 0.0;  // kNum only
  std::unique_ptr<Expr> lhs, rhs;  // kNeg uses lhs only
  int line = 0, col = 0;

  static std::unique_ptr<Expr> num(double v, int line = 0, int col = 0) {
    auto e = std::make_unique<Expr>();
    e->value = v;
    e->line = line;
    e->col = col;
    return e;
  }
};

struct EvalContext {
  std::uint64_t shard = 0;
  std::uint64_t index = 0;  // group member index `i`
};

/// Evaluates `e` under `ctx`. Division or modulo by zero throws ScnError
/// anchored at the operator (the validate pass rejects the constant cases
/// at compile time; this guards shard-dependent ones at instantiation).
double eval(const Expr& e, const EvalContext& ctx);

/// True when the expression references the given free variable anywhere.
bool uses_shard(const Expr& e);
bool uses_index(const Expr& e);

std::unique_ptr<Expr> clone(const Expr& e);

// ---------------------------------------------------------------------------
// Statements. Declaration order is semantic: the runtime constructs
// components in this order, and the sequence of RNG forks during setup is
// part of the deterministic contract (see scn/runtime.hpp).

/// A source-position-carrying entity reference, resolved to an index into
/// Scenario::entities by the validate pass (-1 until then).
struct EntityRef {
  std::string name;
  int line = 0, col = 0;
  int index = -1;
};

/// `entity NAME profile IDENT at (X, Y) [channel C];` or
/// `group NAME profile IDENT count N at (X, Y) [channel C];`
/// A group instantiates eval(count) devices; X/Y/C may use `i`.
struct EntityDecl {
  std::string name;
  std::string profile;
  bool is_group = false;
  std::unique_ptr<Expr> count;  // 1 for singletons
  std::unique_ptr<Expr> pos_x, pos_y;
  std::unique_ptr<Expr> channel;  // default 6
  int line = 0, col = 0;
};

/// `registrar on ENT;` — a Jini lookup service on that entity.
struct RegistrarDecl {
  EntityRef on;
};

/// `projector on ENT;` — a SmartProjector (plus its export-side Jini
/// client) on that entity.
struct ProjectorDecl {
  EntityRef on;
};

/// `display on ENT size W x H deck N;` — a PresenterDisplay framebuffer
/// with a SlideDeckWorkload seeded with N.
struct DisplayDecl {
  EntityRef on;
  std::unique_ptr<Expr> width, height, deck_seed;
};

enum class GoalKind : std::uint8_t { kPresent = 0, kDiscover = 1 };

/// `goal present actor ENT persona IDENT;` — the documented Smart
/// Projector procedure, or `goal discover ...` — a lone service lookup.
struct GoalDecl {
  GoalKind kind = GoalKind::kPresent;
  EntityRef actor;
  std::string persona;
  int line = 0, col = 0;
};

enum class TrafficKind : std::uint8_t { kPing = 0, kSlides = 1 };

/// `traffic ping from ENT to ENT period P [payload N];` — each member of
/// the source entity sends N bytes to the destination every P seconds
/// (P may use `i` to stagger members). `traffic slides on ENT period P;`
/// flips the slide deck of the display on ENT.
struct TrafficDecl {
  TrafficKind kind = TrafficKind::kPing;
  EntityRef from;  // ping: source; slides: display host
  EntityRef to;    // ping only
  std::unique_ptr<Expr> period;
  std::unique_ptr<Expr> payload;  // ping only; default 24
  /// Set by the trains pass: lowered to a pre-scheduled event train
  /// (one generator per tick parks every member's send at the same
  /// timestamp, which the kernel's train batching absorbs).
  bool train_lowered = false;
};

/// The phase timeline, all absolute simulated seconds:
///   settle  — infrastructure quiesces (service export, registrations),
///   meeting — goal procedures have run; background traffic starts,
///   horizon — traffic stops,
///   drain   — tail run past the horizon so in-flight frames land.
struct Phases {
  std::unique_ptr<Expr> settle;   // default 3
  std::unique_ptr<Expr> meeting;  // default 45
  std::unique_ptr<Expr> horizon;  // required
  std::unique_ptr<Expr> drain;    // default 2
};

struct Scenario {
  std::string name;
  double topo_w = 0, topo_h = 0;
  std::vector<EntityDecl> entities;
  std::vector<RegistrarDecl> registrars;
  std::vector<ProjectorDecl> projectors;
  std::vector<DisplayDecl> displays;
  std::vector<GoalDecl> goals;
  std::vector<TrafficDecl> traffic;
  Phases phases;

  // Pass artifacts (not parsed; recomputed on every compile).
  std::uint32_t pass_mask = 0;    // bit per pass that ran (see passes.hpp)
  std::uint32_t folds = 0;        // subtrees folded to constants
  std::uint32_t trains_lowered = 0;  // traffic decls lowered to trains
};

/// True when some traffic flow is train-lowered: the runtime turns on the
/// kernel's same-time train batching exactly then.
bool kernel_trains(const Scenario& s);

}  // namespace aroma::scn

#include "scn/blob.hpp"

#include <utility>

#include "scn/passes.hpp"
#include "sim/time.hpp"

namespace aroma::scn {

namespace {

// --- expression streams ----------------------------------------------------

std::uint32_t node_count(const Expr& e) {
  std::uint32_t n = 1;
  if (e.lhs != nullptr) n += node_count(*e.lhs);
  if (e.rhs != nullptr) n += node_count(*e.rhs);
  return n;
}

void write_expr_post(const Expr& e, snap::SectionWriter& w) {
  if (e.lhs != nullptr) write_expr_post(*e.lhs, w);
  if (e.rhs != nullptr) write_expr_post(*e.rhs, w);
  w.u8(static_cast<std::uint8_t>(e.op));
  if (e.op == ExprOp::kNum) w.f64(e.value);
}

void write_expr(const Expr& e, snap::SectionWriter& w) {
  w.u32(node_count(e));
  write_expr_post(e, w);
}

std::unique_ptr<Expr> read_expr(snap::SectionReader& r) {
  const std::uint32_t ops = r.u32();
  if (ops == 0 || ops > 4096) {
    throw ScnError("malformed expression stream (" + std::to_string(ops) +
                   " opcodes)");
  }
  std::vector<std::unique_ptr<Expr>> stack;
  for (std::uint32_t k = 0; k < ops; ++k) {
    const auto op = static_cast<ExprOp>(r.u8());
    auto node = std::make_unique<Expr>();
    node->op = op;
    switch (op) {
      case ExprOp::kNum:
        node->value = r.f64();
        break;
      case ExprOp::kShard:
      case ExprOp::kIndex:
        break;
      case ExprOp::kNeg:
        if (stack.empty()) throw ScnError("expression stack underflow");
        node->lhs = std::move(stack.back());
        stack.pop_back();
        break;
      case ExprOp::kAdd:
      case ExprOp::kSub:
      case ExprOp::kMul:
      case ExprOp::kDiv:
      case ExprOp::kMod:
        if (stack.size() < 2) throw ScnError("expression stack underflow");
        node->rhs = std::move(stack.back());
        stack.pop_back();
        node->lhs = std::move(stack.back());
        stack.pop_back();
        break;
      default:
        throw ScnError("unknown expression opcode " +
                       std::to_string(static_cast<int>(op)));
    }
    stack.push_back(std::move(node));
  }
  if (stack.size() != 1) {
    throw ScnError("expression stream leaves " + std::to_string(stack.size()) +
                   " values on the stack");
  }
  return std::move(stack.front());
}

EntityRef read_ref(snap::SectionReader& r, std::size_t entity_count,
                   const Scenario& s) {
  const std::uint32_t index = r.u32();
  if (index >= entity_count) {
    throw ScnError("entity index " + std::to_string(index) +
                   " out of range (" + std::to_string(entity_count) +
                   " entities)");
  }
  EntityRef ref;
  ref.index = static_cast<int>(index);
  ref.name = s.entities[index].name;
  return ref;
}

}  // namespace

std::vector<std::uint8_t> encode(const Scenario& s) {
  const sim::Time t0 = sim::Time::zero();
  snap::SnapWriter out;

  {
    snap::SectionWriter w(t0);
    w.str(s.name);
    w.f64(s.topo_w);
    w.f64(s.topo_h);
    w.u32(s.pass_mask);
    w.u32(s.folds);
    w.u32(s.trains_lowered);
    out.add(kTagHeader, 0, w.take());
  }
  {
    snap::SectionWriter w(t0);
    w.u64(s.entities.size());
    for (const EntityDecl& e : s.entities) {
      w.str(e.name);
      w.str(e.profile);
      w.b(e.is_group);
      write_expr(*e.count, w);
      write_expr(*e.pos_x, w);
      write_expr(*e.pos_y, w);
      write_expr(*e.channel, w);
    }
    out.add(kTagEntities, 0, w.take());
  }
  {
    snap::SectionWriter w(t0);
    w.u64(s.registrars.size());
    for (const RegistrarDecl& r : s.registrars) {
      w.u32(static_cast<std::uint32_t>(r.on.index));
    }
    w.u64(s.projectors.size());
    for (const ProjectorDecl& p : s.projectors) {
      w.u32(static_cast<std::uint32_t>(p.on.index));
    }
    w.u64(s.displays.size());
    for (const DisplayDecl& d : s.displays) {
      w.u32(static_cast<std::uint32_t>(d.on.index));
      write_expr(*d.width, w);
      write_expr(*d.height, w);
      write_expr(*d.deck_seed, w);
    }
    w.u64(s.goals.size());
    for (const GoalDecl& g : s.goals) {
      w.u8(static_cast<std::uint8_t>(g.kind));
      w.u32(static_cast<std::uint32_t>(g.actor.index));
      w.str(g.persona);
    }
    out.add(kTagBuild, 0, w.take());
  }
  {
    snap::SectionWriter w(t0);
    w.u64(s.traffic.size());
    for (const TrafficDecl& t : s.traffic) {
      w.u8(static_cast<std::uint8_t>(t.kind));
      w.u32(static_cast<std::uint32_t>(t.from.index));
      if (t.kind == TrafficKind::kPing) {
        w.u32(static_cast<std::uint32_t>(t.to.index));
        write_expr(*t.period, w);
        write_expr(*t.payload, w);
        w.b(t.train_lowered);
      } else {
        write_expr(*t.period, w);
      }
    }
    out.add(kTagTraffic, 0, w.take());
  }
  {
    snap::SectionWriter w(t0);
    write_expr(*s.phases.settle, w);
    write_expr(*s.phases.meeting, w);
    write_expr(*s.phases.horizon, w);
    write_expr(*s.phases.drain, w);
    out.add(kTagPhases, 0, w.take());
  }
  return out.finish(kScnMagic, kScnVersion);
}

Scenario decode(std::span<const std::uint8_t> blob) {
  // Container-level structure (magic, version, CRC, truncation) reuses
  // snap's reader; its failures surface as ScnError.
  std::unique_ptr<snap::SnapReader> reader;
  try {
    reader = std::make_unique<snap::SnapReader>(blob, kScnMagic, kScnVersion);
  } catch (const snap::SnapError& e) {
    throw ScnError(std::string("scenario blob rejected: ") + e.what());
  }

  const sim::Time t0 = sim::Time::zero();
  Scenario s;
  const snap::Section* sections[5] = {};
  constexpr std::uint32_t required[5] = {kTagHeader, kTagEntities, kTagBuild,
                                         kTagTraffic, kTagPhases};
  for (const snap::Section& sec : reader->sections()) {
    bool known = false;
    for (int k = 0; k < 5; ++k) {
      if (sec.tag == required[k]) {
        sections[k] = &sec;
        known = true;
      }
    }
    if (!known && (sec.flags & snap::kSectionOptional) == 0) {
      throw ScnError("scenario blob carries unknown required section " +
                     snap::tag_name(sec.tag));
    }
    // Unknown optional sections are forward-compat: skip them.
  }
  for (int k = 0; k < 5; ++k) {
    if (sections[k] == nullptr) {
      throw ScnError("scenario blob is missing required section " +
                     snap::tag_name(required[k]));
    }
  }

  try {
    {
      snap::SectionReader r(sections[0]->payload, t0);
      s.name = r.str();
      s.topo_w = r.f64();
      s.topo_h = r.f64();
      s.pass_mask = r.u32();
      s.folds = r.u32();
      s.trains_lowered = r.u32();
      r.expect_end();
    }
    {
      snap::SectionReader r(sections[1]->payload, t0);
      const std::uint64_t n = r.u64();
      if (n > 4096) throw ScnError("implausible entity count");
      for (std::uint64_t k = 0; k < n; ++k) {
        EntityDecl e;
        e.name = r.str();
        e.profile = r.str();
        e.is_group = r.b();
        e.count = read_expr(r);
        e.pos_x = read_expr(r);
        e.pos_y = read_expr(r);
        e.channel = read_expr(r);
        s.entities.push_back(std::move(e));
      }
      r.expect_end();
    }
    {
      snap::SectionReader r(sections[2]->payload, t0);
      const std::uint64_t nreg = r.u64();
      for (std::uint64_t k = 0; k < nreg; ++k) {
        s.registrars.push_back(RegistrarDecl{read_ref(r, s.entities.size(), s)});
      }
      const std::uint64_t nproj = r.u64();
      for (std::uint64_t k = 0; k < nproj; ++k) {
        s.projectors.push_back(ProjectorDecl{read_ref(r, s.entities.size(), s)});
      }
      const std::uint64_t ndisp = r.u64();
      for (std::uint64_t k = 0; k < ndisp; ++k) {
        DisplayDecl d;
        d.on = read_ref(r, s.entities.size(), s);
        d.width = read_expr(r);
        d.height = read_expr(r);
        d.deck_seed = read_expr(r);
        s.displays.push_back(std::move(d));
      }
      const std::uint64_t ngoal = r.u64();
      for (std::uint64_t k = 0; k < ngoal; ++k) {
        GoalDecl g;
        g.kind = static_cast<GoalKind>(r.u8());
        if (g.kind != GoalKind::kPresent && g.kind != GoalKind::kDiscover) {
          throw ScnError("unknown goal kind in blob");
        }
        g.actor = read_ref(r, s.entities.size(), s);
        g.persona = r.str();
        s.goals.push_back(std::move(g));
      }
      r.expect_end();
    }
    {
      snap::SectionReader r(sections[3]->payload, t0);
      const std::uint64_t n = r.u64();
      if (n > 4096) throw ScnError("implausible traffic count");
      for (std::uint64_t k = 0; k < n; ++k) {
        TrafficDecl t;
        t.kind = static_cast<TrafficKind>(r.u8());
        if (t.kind != TrafficKind::kPing && t.kind != TrafficKind::kSlides) {
          throw ScnError("unknown traffic kind in blob");
        }
        t.from = read_ref(r, s.entities.size(), s);
        if (t.kind == TrafficKind::kPing) {
          t.to = read_ref(r, s.entities.size(), s);
          t.period = read_expr(r);
          t.payload = read_expr(r);
          t.train_lowered = r.b();
        } else {
          t.period = read_expr(r);
        }
        s.traffic.push_back(std::move(t));
      }
      r.expect_end();
    }
    {
      snap::SectionReader r(sections[4]->payload, t0);
      s.phases.settle = read_expr(r);
      s.phases.meeting = read_expr(r);
      s.phases.horizon = read_expr(r);
      s.phases.drain = read_expr(r);
      r.expect_end();
    }
  } catch (const snap::SnapError& e) {
    throw ScnError(std::string("scenario blob rejected: ") + e.what());
  }
  // A well-framed blob can still name an unknown profile or persona, or
  // carry a topology the compiler would refuse: hold it to the same rules.
  validate(s);
  return s;
}

}  // namespace aroma::scn

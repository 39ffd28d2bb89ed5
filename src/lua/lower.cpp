#include "lua/lower.hpp"

#include <algorithm>

#include "lua/arith.hpp"

namespace mantle::lua {

namespace {

using Op = NumProgram::Instr::Op;

/// What an emitted expression leaves on the operand stack.
enum class Type { Declined, Number, Boolean };

/// The index of `name` in `names`, if it is there.
std::optional<std::uint32_t> index_of(const std::vector<std::string>& names,
                                      const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) return std::nullopt;
  return static_cast<std::uint32_t>(it - names.begin());
}

/// One lowering walk. Charges steps exactly where Interp::eval_expr calls
/// step(): once per node it evaluates, once per index key.
class Lowerer {
 public:
  explicit Lowerer(const std::vector<std::string>& inputs) : inputs_(inputs) {}

  /// Append `e` in postfix and return its type; Declined stops the walk.
  /// Only numbers may be operands: the interpreter raises an error on
  /// arithmetic or ordering over a boolean. `*depth` gets the operand
  /// stack `e` needs.
  Type emit(const Expr& e, std::size_t* depth) {
    ++prog_.steps;
    switch (e.kind) {
      case Expr::Kind::Number:
        prog_.code.push_back({Op::Const, BinOp::Add, 0, e.number});
        *depth = 1;
        return Type::Number;
      case Expr::Kind::Unary:
        if (e.uop == UnOp::Len) {
          // `#g`: the operand is one more node.
          ++prog_.steps;
          const Expr& g = *e.a;
          if (g.kind != Expr::Kind::Name || g.ref != Expr::RefKind::Global)
            return Type::Declined;
          return input("#" + g.str, depth);
        }
        if (e.uop != UnOp::Neg || emit(*e.a, depth) != Type::Number)
          return Type::Declined;
        prog_.code.push_back({Op::Neg});
        return Type::Number;
      case Expr::Kind::Binary: {
        const bool order = is_order(e.bop);
        std::size_t da = 0;
        std::size_t db = 0;
        if ((!is_arith(e.bop) && !order) || emit(*e.a, &da) != Type::Number ||
            emit(*e.b, &db) != Type::Number)
          return Type::Declined;
        prog_.code.push_back({order ? Op::Compare : Op::Arith, e.bop});
        *depth = std::max(da, db + 1);
        if (*depth > NumProgram::kMaxStack) return Type::Declined;
        return order ? Type::Boolean : Type::Number;
      }
      case Expr::Kind::Name:
      case Expr::Kind::Index: {
        std::string path;
        if (!path_of(e, &path)) return Type::Declined;
        return input(path, depth);
      }
      default:
        return Type::Declined;
    }
  }

  NumProgram take() { return std::move(prog_); }

 private:
  /// Push the input named `path`, if there is one.
  Type input(const std::string& path, std::size_t* depth) {
    const std::optional<std::uint32_t> k = index_of(inputs_, path);
    if (!k) return Type::Declined;
    prog_.code.push_back({Op::Input, BinOp::Add, *k});
    *depth = 1;
    return Type::Number;
  }

  /// Spell the read path `e` evaluates (`MDSs[i].auth`) into `*path`,
  /// charging the steps below `e`'s own node; false if it is no path.
  bool path_of(const Expr& e, std::string* path) {
    if (e.kind == Expr::Kind::Name) {
      *path = e.str;
      return e.ref == Expr::RefKind::Global;
    }
    if (e.kind != Expr::Kind::Index) return false;
    prog_.steps += 2;  // the key, and the node being indexed
    if (!path_of(*e.a, path)) return false;
    const Expr& key = *e.b;
    if (key.kind == Expr::Kind::String) {
      *path += "." + key.str;
      return true;
    }
    if (key.kind == Expr::Kind::Name && key.ref == Expr::RefKind::Global) {
      *path += "[" + key.str + "]";
      return true;
    }
    return false;
  }

  const std::vector<std::string>& inputs_;
  NumProgram prog_;
};

using CInstr = ChunkProgram::Instr;
using COp = CInstr::Op;

/// Is `e` a read of global `name`?
bool is_global(const Expr& e, const std::string& name) {
  return e.kind == Expr::Kind::Name && e.ref == Expr::RefKind::Global &&
         e.str == name;
}

/// One lowering walk of a `where` chunk. Charges steps exactly where
/// Interp::exec_stmt and Interp::eval_expr call step(), each on an
/// instruction that runs exactly when the interpreter takes that step.
class ChunkLowerer {
 public:
  explicit ChunkLowerer(const ViewBinding& binding) : b_(binding) {
    prog_.stride = b_.fields.size();
  }

  bool block(const Block& blk) {
    for (const StmtPtr& s : blk.stmts)
      if (!stmt(*s)) return false;
    return true;
  }

  std::optional<ChunkProgram> take() {
    if (max_sp_ > static_cast<int>(ChunkProgram::kMaxStack))
      return std::nullopt;
    return std::move(prog_);
  }

 private:
  std::uint32_t here() const {
    return static_cast<std::uint32_t>(prog_.code.size());
  }

  /// Append `in`, which moves the operand stack by `delta`; returns its
  /// index, for patching a jump target.
  std::uint32_t emit(const CInstr& in, int delta) {
    sp_ += delta;
    max_sp_ = std::max(max_sp_, sp_);
    prog_.code.push_back(in);
    return here() - 1;
  }

  bool stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::Assign: return assign(s);
      case Stmt::Kind::NumFor: return loop(s);
      case Stmt::Kind::If: return branch(s);
      default: return false;
    }
  }

  /// `g = <num>` (1 step, and the value's), or `targets[v] = <num>` (3:
  /// the statement, `targets` and `v`).
  bool assign(const Stmt& s) {
    if (s.lhs.size() != 1 || s.rhs.size() != 1) return false;
    const Expr& lhs = *s.lhs[0];
    if (lhs.kind == Expr::Kind::Name) {
      if (lhs.ref != Expr::RefKind::Global || bound(lhs.str) ||
          expr(*s.rhs[0]) != Type::Number)
        return false;
      std::optional<std::uint32_t> g = index_of(prog_.globals, lhs.str);
      if (!g) {
        if (prog_.globals.size() == ChunkProgram::kMaxGlobals) return false;
        g = static_cast<std::uint32_t>(prog_.globals.size());
        prog_.globals.push_back(lhs.str);
      }
      emit({.op = COp::SetGlobal, .a = *g, .steps = 1}, -1);
      assigned_ |= std::uint64_t{1} << *g;
      return true;
    }
    if (lhs.kind != Expr::Kind::Index || !is_global(*lhs.a, b_.targets))
      return false;
    const std::optional<std::uint32_t> d = loop_of(*lhs.b);
    if (!d || expr(*s.rhs[0]) != Type::Number) return false;
    emit({.op = COp::SetTarget, .a = *d, .steps = 3}, -1);
    return true;
  }

  /// `for v = 1, #rows do ... end`: 4 steps (the statement, `1` and
  /// `#rows`), and 1 per iteration.
  bool loop(const Stmt& s) {
    if (s.slots.size() != 1 || s.e3 || s.body.frame_slots >= 0 ||
        s.e1->kind != Expr::Kind::Number || s.e1->number != 1.0 ||
        !is_length(*s.e2) || loops_.size() == ChunkProgram::kMaxLoops)
      return false;
    const auto d = static_cast<std::uint32_t>(loops_.size());
    const std::uint32_t prep = emit({.op = COp::ForPrep, .a = d, .steps = 4}, 0);
    loops_.push_back(s.slots[0]);
    const std::uint64_t before = assigned_;
    if (!block(s.body)) return false;
    assigned_ = before;  // the body may not have run
    loops_.pop_back();
    emit({.op = COp::ForNext, .a = d, .b = prep + 1}, 0);
    prog_.code[prep].b = here();
    return true;
  }

  /// `if`: 1 step, and each condition tested. A global is assigned after
  /// it only if every way through assigned it.
  bool branch(const Stmt& s) {
    const std::uint64_t before = assigned_;
    std::uint64_t after = ~std::uint64_t{0};
    std::vector<std::uint32_t> exits;
    for (std::size_t c = 0; c < s.clauses.size(); ++c) {
      const auto& [cond, body] = s.clauses[c];
      assigned_ = before;
      if (expr(*cond) != Type::Boolean) return false;
      const std::uint32_t test = emit(
          {.op = COp::JumpIfFalse, .steps = c == 0 ? 1u : 0u}, -1);
      if (!block(body)) return false;
      after &= assigned_;
      if (c + 1 < s.clauses.size() || s.else_body)
        exits.push_back(emit({.op = COp::Jump}, 0));
      prog_.code[test].a = here();
    }
    assigned_ = before;
    if (s.else_body && !block(*s.else_body)) return false;
    for (const std::uint32_t j : exits) prog_.code[j].a = here();
    assigned_ &= after;
    return true;
  }

  /// Append `e` in postfix and return its type. Arithmetic and ordering
  /// take numbers and `and`, `or` and `not` booleans, so no operation the
  /// interpreter would raise an error on is ever lowered.
  Type expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::Number:
        emit({.op = COp::Const, .steps = 1, .value = e.number}, 1);
        return Type::Number;
      case Expr::Kind::Name: return name(e);
      case Expr::Kind::Index: return field(e);
      case Expr::Kind::Unary: {
        if (e.uop == UnOp::Len) {
          if (!is_length(e)) return Type::Declined;
          emit({.op = COp::Length, .steps = 2}, 1);
          return Type::Number;
        }
        const Type t = expr(*e.a);
        if (t != (e.uop == UnOp::Neg ? Type::Number : Type::Boolean))
          return Type::Declined;
        emit({.op = e.uop == UnOp::Neg ? COp::Neg : COp::Not, .steps = 1}, 0);
        return t;
      }
      case Expr::Kind::Binary: {
        if (e.bop == BinOp::And || e.bop == BinOp::Or) {
          // The left operand decides alone when it is false (`and`) or
          // true (`or`), and is then the value; otherwise the right one is.
          if (expr(*e.a) != Type::Boolean) return Type::Declined;
          const std::uint32_t jump = emit(
              {.op = e.bop == BinOp::And ? COp::AndJump : COp::OrJump,
               .steps = 1},
              -1);
          if (expr(*e.b) != Type::Boolean) return Type::Declined;
          prog_.code[jump].a = here();
          return Type::Boolean;
        }
        const bool cmp = is_compare(e.bop);
        if ((!cmp && !is_arith(e.bop)) || expr(*e.a) != Type::Number ||
            expr(*e.b) != Type::Number)
          return Type::Declined;
        emit({.op = cmp ? COp::Compare : COp::Arith, .bop = e.bop, .steps = 1},
             -1);
        return cmp ? Type::Boolean : Type::Number;
      }
      default:
        return Type::Declined;
    }
  }

  /// A loop variable, a scalar, or a global the chunk has assigned on
  /// every path to here.
  Type name(const Expr& e) {
    if (const std::optional<std::uint32_t> d = loop_of(e)) {
      emit({.op = COp::LoopVar, .a = *d, .steps = 1}, 1);
      return Type::Number;
    }
    if (e.ref != Expr::RefKind::Global) return Type::Declined;
    if (const std::optional<std::uint32_t> k = index_of(b_.scalars, e.str)) {
      emit({.op = COp::Scalar, .a = *k, .steps = 1}, 1);
      return Type::Number;
    }
    const std::optional<std::uint32_t> g = index_of(prog_.globals, e.str);
    if (!g || (assigned_ >> *g & 1) == 0) return Type::Declined;
    emit({.op = COp::Global, .a = *g, .steps = 1}, 1);
    return Type::Number;
  }

  /// `rows[v][f]` or `rows[scalars[0]][f]`: 5 steps (two index nodes,
  /// `rows`, the row key and the field key).
  Type field(const Expr& e) {
    if (e.b->kind != Expr::Kind::String || e.a->kind != Expr::Kind::Index)
      return Type::Declined;
    const Expr& row = *e.a;
    const std::optional<std::uint32_t> f = index_of(b_.fields, e.b->str);
    if (!f || !is_global(*row.a, b_.rows)) return Type::Declined;
    if (const std::optional<std::uint32_t> d = loop_of(*row.b)) {
      emit({.op = COp::RowField, .a = *d, .b = *f, .steps = 5}, 1);
      return Type::Number;
    }
    if (!is_global(*row.b, b_.scalars.front())) return Type::Declined;
    emit({.op = COp::SelfField, .a = *f, .steps = 5}, 1);
    return Type::Number;
  }

  /// `#rows`.
  bool is_length(const Expr& e) const {
    return e.kind == Expr::Kind::Unary && e.uop == UnOp::Len &&
           is_global(*e.a, b_.rows);
  }

  /// The depth of the enclosing loop whose variable `e` reads, if any.
  std::optional<std::uint32_t> loop_of(const Expr& e) const {
    if (e.kind != Expr::Kind::Name || e.ref != Expr::RefKind::Local ||
        e.hops != 0)
      return std::nullopt;
    for (std::size_t d = loops_.size(); d-- > 0;)
      if (loops_[d] == e.slot) return static_cast<std::uint32_t>(d);
    return std::nullopt;
  }

  /// A global the host writes.
  bool bound(const std::string& name) const {
    return name == b_.rows || name == b_.targets ||
           index_of(b_.scalars, name) || index_of(b_.reserved, name);
  }

  const ViewBinding& b_;
  ChunkProgram prog_;
  std::vector<std::uint32_t> loops_;  // each enclosing loop's variable slot
  std::uint64_t assigned_ = 0;  // globals assigned on every path to here
  int sp_ = 0;
  int max_sp_ = 0;
};

/// `__go = 1`, the body MantleBalancer completes Table 1's `when` with.
bool sets_go_flag(const Stmt& s) {
  return s.kind == Stmt::Kind::Assign && s.lhs.size() == 1 &&
         s.rhs.size() == 1 && s.lhs[0]->kind == Expr::Kind::Name &&
         s.lhs[0]->ref == Expr::RefKind::Global && s.lhs[0]->str == "__go" &&
         s.rhs[0]->kind == Expr::Kind::Number && s.rhs[0]->number == 1.0;
}

}  // namespace

double NumProgram::run(const double* inputs) const {
  double stack[kMaxStack];
  double* top = stack;  // one past the topmost operand
  for (const Instr& in : code) {
    switch (in.op) {
      case Op::Const: *top++ = in.value; break;
      case Op::Input: *top++ = inputs[in.input]; break;
      case Op::Neg: top[-1] = -top[-1]; break;
      case Op::Arith:
        --top;
        top[-1] = arith(in.bop, top[-1], *top);
        break;
      case Op::Compare:
        --top;
        top[-1] = compare(in.bop, top[-1], *top) ? 1.0 : 0.0;
        break;
    }
  }
  return stack[0];
}

ChunkProgram::Result ChunkProgram::run(const double* scalars,
                                       const double* rows, std::size_t n,
                                       double* targets, double* globals,
                                       std::uint64_t budget) const {
  double stack[kMaxStack];
  double* top = stack;  // one past the topmost operand
  std::size_t row[kMaxLoops];  // each loop's row, 0-based
  Result r;
  const Instr* const begin = code.data();
  const Instr* const end = begin + code.size();
  for (const Instr* pc = begin; pc != end;) {
    const Instr& in = *pc++;
    r.steps += in.steps;
    switch (in.op) {
      case COp::Const: *top++ = in.value; break;
      case COp::Scalar: *top++ = scalars[in.a]; break;
      case COp::Length: *top++ = static_cast<double>(n); break;
      case COp::SelfField: {
        const auto self = static_cast<std::size_t>(scalars[0]) - 1;
        *top++ = rows[self * stride + in.a];
        break;
      }
      case COp::RowField: *top++ = rows[row[in.a] * stride + in.b]; break;
      case COp::LoopVar: *top++ = static_cast<double>(row[in.a] + 1); break;
      case COp::Global: *top++ = globals[in.a]; break;
      case COp::Neg: top[-1] = -top[-1]; break;
      case COp::Not: top[-1] = top[-1] == 0.0 ? 1.0 : 0.0; break;
      case COp::Arith:
        --top;
        top[-1] = arith(in.bop, top[-1], *top);
        break;
      case COp::Compare:
        --top;
        top[-1] = compare(in.bop, top[-1], *top) ? 1.0 : 0.0;
        break;
      case COp::AndJump:
        if (top[-1] == 0.0) pc = begin + in.a;
        else --top;
        break;
      case COp::OrJump:
        if (top[-1] != 0.0) pc = begin + in.a;
        else --top;
        break;
      case COp::JumpIfFalse:
        if (*--top == 0.0) pc = begin + in.a;
        break;
      case COp::Jump: pc = begin + in.a; break;
      case COp::SetGlobal:
        globals[in.a] = *--top;
        r.assigned |= std::uint64_t{1} << in.a;
        break;
      case COp::SetTarget: targets[row[in.a]] = *--top; break;
      case COp::ForPrep:
        row[in.a] = 0;
        if (n == 0) pc = begin + in.b;
        else ++r.steps;
        break;
      case COp::ForNext:
        if (++row[in.a] < n) {
          ++r.steps;
          // Every iteration is checked, so a nest of loops stops early.
          if (budget != 0 && r.steps > budget) return r;
          pc = begin + in.b;
        }
        break;
    }
  }
  r.finished = budget == 0 || r.steps <= budget;
  return r;
}

std::optional<NumProgram> lower_expr(const CompiledChunk& chunk,
                                     const std::vector<std::string>& inputs,
                                     std::uint64_t budget) {
  if (!chunk.ok() || chunk.chunk->block.stmts.size() != 1) return std::nullopt;
  const Stmt& ret = *chunk.chunk->block.stmts.front();
  if (ret.kind != Stmt::Kind::Return || ret.rhs.size() != 1)
    return std::nullopt;
  Lowerer lowerer(inputs);
  std::size_t depth = 0;
  const Type type = lowerer.emit(*ret.rhs.front(), &depth);
  if (type == Type::Declined) return std::nullopt;
  NumProgram prog = lowerer.take();
  prog.boolean = type == Type::Boolean;
  ++prog.steps;  // the return statement
  if (budget != 0 && prog.steps > budget) return std::nullopt;
  return prog;
}

std::optional<ThenProgram> lower_then(const CompiledChunk& chunk,
                                      const std::vector<std::string>& inputs,
                                      std::uint64_t budget) {
  if (!chunk.ok() || chunk.chunk->block.stmts.size() != 1) return std::nullopt;
  const Stmt& s = *chunk.chunk->block.stmts.front();
  if (s.kind != Stmt::Kind::If || s.clauses.size() != 1 || s.else_body)
    return std::nullopt;
  const auto& [cond, body] = s.clauses.front();
  if (body.stmts.size() != 1 || !sets_go_flag(*body.stmts.front()))
    return std::nullopt;
  Lowerer lowerer(inputs);
  std::size_t depth = 0;
  if (lowerer.emit(*cond, &depth) != Type::Boolean) return std::nullopt;
  ThenProgram p;
  p.cond = lowerer.take();
  p.cond.boolean = true;
  p.steps_not_taken = 1 + p.cond.steps;   // the `if`
  p.steps_taken = p.steps_not_taken + 2;  // `__go = 1`: statement, literal
  if (budget != 0 && p.steps_taken > budget) return std::nullopt;
  return p;
}

std::optional<ChunkProgram> lower_chunk(const CompiledChunk& chunk,
                                        const ViewBinding& binding) {
  if (!chunk.ok() || binding.scalars.empty()) return std::nullopt;
  ChunkLowerer lowerer(binding);
  if (!lowerer.block(chunk.chunk->block)) return std::nullopt;
  return lowerer.take();
}

std::optional<ListProgram> lower_list(const CompiledChunk& chunk,
                                      std::uint64_t budget) {
  if (!chunk.ok() || chunk.chunk->block.stmts.size() != 1) return std::nullopt;
  const Stmt& ret = *chunk.chunk->block.stmts.front();
  if (ret.kind != Stmt::Kind::Return || ret.rhs.size() != 1)
    return std::nullopt;
  const Expr& t = *ret.rhs.front();
  if (t.kind != Expr::Kind::Table || !t.fields.empty()) return std::nullopt;
  ListProgram p;
  for (const ExprPtr& item : t.list) {
    if (item->kind != Expr::Kind::String) return std::nullopt;
    p.items.push_back(item->str);
  }
  p.steps = 2 + p.items.size();
  if (budget != 0 && p.steps > budget) return std::nullopt;
  return p;
}

}  // namespace mantle::lua

#include "lua/lower.hpp"

#include <algorithm>

#include "lua/arith.hpp"

namespace mantle::lua {

namespace {

using Op = NumProgram::Instr::Op;

/// What an emitted expression leaves on the operand stack.
enum class Type { Declined, Number, Boolean };

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
    const auto it = std::find(inputs_.begin(), inputs_.end(), path);
    if (it == inputs_.end()) return Type::Declined;
    prog_.code.push_back({Op::Input, BinOp::Add,
                          static_cast<std::uint32_t>(it - inputs_.begin())});
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

}  // namespace mantle::lua

#include "lua/lower.hpp"

#include <algorithm>

#include "lua/arith.hpp"

namespace mantle::lua {

namespace {

using Op = NumProgram::Instr::Op;

/// One lowering walk. Charges steps exactly where Interp::eval_expr calls
/// step(): once per node it evaluates, once per index key.
class Lowerer {
 public:
  explicit Lowerer(const std::vector<std::string>& inputs) : inputs_(inputs) {}

  /// Append `e` in postfix; false declines. `*depth` gets the operand
  /// stack `e` needs.
  bool emit(const Expr& e, std::size_t* depth) {
    ++prog_.steps;
    switch (e.kind) {
      case Expr::Kind::Number:
        prog_.code.push_back({Op::Const, BinOp::Add, 0, e.number});
        *depth = 1;
        return true;
      case Expr::Kind::Unary:
        if (e.uop != UnOp::Neg || !emit(*e.a, depth)) return false;
        prog_.code.push_back({Op::Neg});
        return true;
      case Expr::Kind::Binary: {
        std::size_t da = 0;
        std::size_t db = 0;
        if (!is_arith(e.bop) || !emit(*e.a, &da) || !emit(*e.b, &db))
          return false;
        prog_.code.push_back({Op::Arith, e.bop});
        *depth = std::max(da, db + 1);
        return *depth <= NumProgram::kMaxStack;
      }
      case Expr::Kind::Name:
      case Expr::Kind::Index: {
        std::string path;
        if (!path_of(e, &path)) return false;
        const auto it = std::find(inputs_.begin(), inputs_.end(), path);
        if (it == inputs_.end()) return false;
        prog_.code.push_back(
            {Op::Input, BinOp::Add,
             static_cast<std::uint32_t>(it - inputs_.begin())});
        *depth = 1;
        return true;
      }
      default:
        return false;
    }
  }

  NumProgram take() { return std::move(prog_); }

 private:
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
  if (!lowerer.emit(*ret.rhs.front(), &depth)) return std::nullopt;
  NumProgram prog = lowerer.take();
  ++prog.steps;  // the return statement
  if (budget != 0 && prog.steps > budget) return std::nullopt;
  return prog;
}

}  // namespace mantle::lua

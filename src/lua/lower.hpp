#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lua/ast.hpp"
#include "lua/interp.hpp"

/// \file lower.hpp
/// Lowering of arithmetic expression chunks to flat postfix programs over
/// doubles. A load hook such as Table 1's
/// `0.8*MDSs[i]["auth"] + 0.2*MDSs[i]["all"] + MDSs[i]["req"] + 10*MDSs[i]["q"]`
/// reads only numbers the host has just bound, and for such an expression
/// the interpreter's result and step count are fixed by the AST. The
/// lowered program computes the same result from the same doubles with the
/// same IEEE operations in the same order (lua/arith.hpp), without the tree
/// walk, the string-keyed table reads or the Value traffic. Table 1's
/// `when`, `if <comparison> then`, lowers the same way (lower_then()).

namespace mantle::lua {

/// A lowered `return (<expr>)` chunk: postfix code over doubles.
struct NumProgram {
  /// Deepest operand stack a program may use; lower_expr() declines
  /// expressions that need more.
  static constexpr std::size_t kMaxStack = 32;

  struct Instr {
    enum class Op : std::uint8_t { Const, Input, Neg, Arith, Compare };
    Op op = Op::Const;
    BinOp bop = BinOp::Add;   // Arith, Compare
    std::uint32_t input = 0;  // Input
    double value = 0.0;       // Const
  };

  std::vector<Instr> code;
  /// Steps Interp::run charges for the same chunk: 1 for the `return`,
  /// 1 per expression node and 1 more per index key, so `MDSs[i]["auth"]`
  /// costs 5 and `#MDSs` 2.
  std::uint64_t steps = 0;
  /// The expression is a comparison: the interpreter yields a boolean,
  /// and run() returns 1 for true and 0 for false.
  bool boolean = false;

  /// The expression's value, with `inputs[k]` standing for the k-th name
  /// given to lower_expr(). Equals Interp::run of the source chunk when
  /// every input holds the number the interpreter would read at its path.
  double run(const double* inputs) const;
};

/// Lower `chunk` if it is exactly `return (<expr>)` (what compile_expr()
/// builds) where <expr> uses only numeric literals, `+ - * / % ^`, unary
/// minus and reads of the named inputs, optionally under one outermost
/// `<`, `<=`, `>` or `>=`, and Interp::run would finish it within `budget`
/// steps (0 = unlimited). Otherwise nullopt: the chunk stays on the
/// interpreter. `==`, `~=`, `and`, `or` and `not` are declined.
///
/// Each input names a read path: a global (`IRD`), then any number of
/// keys, `.f` for a constant string key (`t.f` or `t["f"]`) and `[g]` for
/// a key held in global `g` (`MDSs[i].auth` reads `MDSs[i]["auth"]`); or
/// `#g`, the length of the table in global `g`.
/// The caller guarantees that, whenever it runs the program, every path
/// resolves in its interpreter to the number it passes for that input.
std::optional<NumProgram> lower_expr(const CompiledChunk& chunk,
                                     const std::vector<std::string>& inputs,
                                     std::uint64_t budget);

/// A lowered `if <cond> then __go = 1 end` chunk: Table 1's `when` as
/// MantleBalancer completes it. Running it on the interpreter leaves
/// `__go` at 1 if `cond.run()` is 1, and untouched otherwise.
struct ThenProgram {
  NumProgram cond;  // boolean; its `steps` count the condition's nodes only
  /// Steps Interp::run charges: the `if` and the condition, and, when the
  /// condition holds, 2 more for the assignment and its literal.
  std::uint64_t steps_not_taken = 0;
  std::uint64_t steps_taken = 0;
};

/// Lower `chunk` if it is exactly one `if` with one comparison clause that
/// lower_expr() would accept, no `elseif` or `else`, and `__go = 1` as its
/// whole body, and the taken path fits `budget` (0 = unlimited).
std::optional<ThenProgram> lower_then(const CompiledChunk& chunk,
                                      const std::vector<std::string>& inputs,
                                      std::uint64_t budget);

}  // namespace mantle::lua

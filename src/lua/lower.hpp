#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lua/ast.hpp"
#include "lua/interp.hpp"

/// \file lower.hpp
/// Lowering of policy chunks to flat programs over doubles. A load hook
/// such as Table 1's
/// `0.8*MDSs[i]["auth"] + 0.2*MDSs[i]["all"] + MDSs[i]["req"] + 10*MDSs[i]["q"]`
/// reads only numbers the host has just bound, and for such an expression
/// the interpreter's result and step count are fixed by the AST. The
/// lowered program computes the same result from the same doubles with the
/// same IEEE operations in the same order (lua/arith.hpp), without the tree
/// walk, the string-keyed table reads or the Value traffic. Table 1's
/// `when`, `if <comparison> then`, lowers the same way (lower_then()).
///
/// Table 1's `where`, a statement chunk with loops and branches over the
/// view, lowers to a ChunkProgram (lower_chunk()): postfix code with jumps
/// that charges the interpreter's steps branch by branch and stops when
/// they would pass the budget, so that the interpreter can run the chunk
/// and fail as it always has. A `howmuch` that is a constructor of string
/// literals lowers to its constant list (lower_list()).
///
/// The interpreter stays the one definition of the semantics. Whether a
/// chunk lowers is decided from its syntax alone, and anything outside a
/// lowering's subset stays on the interpreter.

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

/// What a host binds before it runs a `where` chunk over a view of n >= 1
/// rows (MantleBalancer's view bind).
struct ViewBinding {
  /// Globals holding numbers, in the order ChunkProgram::run takes their
  /// values. The first holds the caller's row index, 1..n (`whoami`).
  std::vector<std::string> scalars;
  /// The global holding the rows at keys 1..n and no other key (`MDSs`),
  /// and the number fields every row holds.
  std::string rows;
  std::vector<std::string> fields;
  /// The global holding n zeros at keys 1..n for the chunk to fill.
  std::string targets;
  /// Further globals the host writes, which the chunk may not assign.
  std::vector<std::string> reserved;
};

/// A lowered `where` chunk: postfix code over doubles, with jumps.
struct ChunkProgram {
  /// Deepest operand stack, deepest loop nest, and most assigned globals
  /// a program may have; lower_chunk() declines chunks that need more.
  static constexpr std::size_t kMaxStack = 32;
  static constexpr std::size_t kMaxLoops = 8;
  static constexpr std::size_t kMaxGlobals = 64;

  struct Instr {
    enum class Op : std::uint8_t {
      Const,      // push value
      Scalar,     // push scalars[a]
      Length,     // push n
      SelfField,  // push field a of the caller's row
      RowField,   // push field b of loop a's row
      LoopVar,    // push loop a's variable
      Global,     // push global a
      Neg,
      Not,
      Arith,
      Compare,      // 1 for true, 0 for false
      AndJump,      // false: keep it and jump to a; true: pop it
      OrJump,       // true: keep it and jump to a; false: pop it
      JumpIfFalse,  // pop; false: jump to a
      Jump,
      SetGlobal,  // pop into global a
      SetTarget,  // pop into the target of loop a's row
      ForPrep,    // loop a starts at row 1, or jumps to b if n is 0
      ForNext,    // loop a moves to its next row and jumps to b, if any
    };
    Op op = Op::Const;
    BinOp bop = BinOp::Add;  // Arith, Compare
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    /// Steps Interp::run charges for what this instruction stands for,
    /// charged as it runs. ForPrep and ForNext charge one more for each
    /// iteration they start.
    std::uint32_t steps = 0;
    double value = 0.0;  // Const
  };

  std::vector<Instr> code;
  /// The globals the chunk assigns (SetGlobal's `a` indexes them).
  std::vector<std::string> globals;
  /// Fields per row: ViewBinding::fields.size().
  std::size_t stride = 0;

  struct Result {
    /// False if the steps would pass the budget: the interpreter raises
    /// its budget error on this chunk, so the caller runs it there.
    bool finished = false;
    /// Steps Interp::run charges for the chunk (when finished).
    std::uint64_t steps = 0;
    /// Bit g is set if the run assigned globals[g].
    std::uint64_t assigned = 0;
  };

  /// Run over the view: `scalars` holds the values of ViewBinding::scalars,
  /// `rows` the n rows' fields (row k's field f at rows[k * stride + f]),
  /// and `targets` the n targets, zeros, which the run overwrites where the
  /// chunk assigns them. `globals` receives the assigned globals' values.
  /// Finished, the run leaves in `targets`, and in the assigned `globals`,
  /// exactly what Interp::run of the source chunk leaves in the bound
  /// `targets` table and in those globals, at the same step count. Not
  /// finished, both arrays hold partial writes the caller must discard.
  Result run(const double* scalars, const double* rows, std::size_t n,
             double* targets, double* globals, std::uint64_t budget) const;
};

/// Lower `chunk` if it stays within this subset, under `binding`:
///
///   statements  g = <num>              g a global the host does not bind
///               for v = 1, #rows do ... end
///               if ... then ... [elseif ... then ...] [else ...] end
///               targets[v] = <num>     v an enclosing loop's variable
///   <num>       numeric literals, + - * / % ^ and unary minus over <num>;
///               a scalar, #rows, rows[scalars[0]][f] and rows[v][f] for a
///               field f, a loop variable, and a global the chunk has
///               assigned on every path leading to the read
///   conditions  == ~= < <= > >= over <num>, and `and`, `or` and `not`
///               over conditions
///
/// Otherwise nullopt: calls, strings, `while`, `local`, `return`, other
/// row indices (`rows[scalars[0] + 1]`) and writes to bound names all stay
/// on the interpreter. The budget is checked as the program runs.
std::optional<ChunkProgram> lower_chunk(const CompiledChunk& chunk,
                                        const ViewBinding& binding);

/// A lowered `return ({"a", "b", ...})` chunk (what compile_expr() builds
/// from a constructor of string literals): the list it returns.
struct ListProgram {
  std::vector<std::string> items;
  /// Steps Interp::run charges: the return, the constructor, one per item.
  std::uint64_t steps = 0;
};

/// Lower `chunk` if it returns one table constructor whose entries are all
/// positional string literals, and Interp::run would finish it within
/// `budget` steps (0 = unlimited).
std::optional<ListProgram> lower_list(const CompiledChunk& chunk,
                                      std::uint64_t budget);

}  // namespace mantle::lua

#pragma once

#include <cmath>

#include "lua/ast.hpp"

/// \file arith.hpp
/// Lua arithmetic on two numbers, defined once. The interpreter, the
/// parser's constant folder and lowered numeric programs (lower.hpp) all
/// call arith(), so a folded, interpreted or lowered `a % b` yields the
/// same bits.

namespace mantle::lua {

/// True for the six arithmetic operators: + - * / % ^.
constexpr bool is_arith(BinOp op) { return op <= BinOp::Pow; }

/// `a op b` for an operator with is_arith(op). IEEE results (inf, NaN)
/// pass through; `%` is Lua's floored modulo, signed like the divisor.
inline double arith(BinOp op, double a, double b) {
  switch (op) {
    case BinOp::Add: return a + b;
    case BinOp::Sub: return a - b;
    case BinOp::Mul: return a * b;
    case BinOp::Div: return a / b;
    case BinOp::Mod: return a - std::floor(a / b) * b;
    default: return std::pow(a, b);
  }
}

}  // namespace mantle::lua

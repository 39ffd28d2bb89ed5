#pragma once

#include <cmath>

#include "lua/ast.hpp"

/// \file arith.hpp
/// Lua arithmetic and ordering on two numbers, defined once. The
/// interpreter, the parser's constant folder and lowered numeric programs
/// (lower.hpp) all call arith() and compare(), so a folded, interpreted or
/// lowered `a % b` yields the same bits and `a < b` the same truth.

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

/// True for the four ordering comparisons: < <= > >=.
constexpr bool is_order(BinOp op) { return op >= BinOp::Lt && op <= BinOp::Ge; }

/// True for the six comparisons: == ~= < <= > >=.
constexpr bool is_compare(BinOp op) {
  return op >= BinOp::Eq && op <= BinOp::Ge;
}

/// `a op b` for an operator with is_compare(op). Any comparison with NaN is
/// false but `~=`, and the zeros of either sign are equal; `==` and `~=`
/// over two numbers are what Value::equals makes of them.
inline bool compare(BinOp op, double a, double b) {
  switch (op) {
    case BinOp::Eq: return a == b;
    case BinOp::Ne: return a != b;
    case BinOp::Lt: return a < b;
    case BinOp::Le: return a <= b;
    case BinOp::Gt: return a > b;
    default: return a >= b;
  }
}

}  // namespace mantle::lua

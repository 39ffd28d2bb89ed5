/// Differential tests for lowered numeric programs (lua/lower.hpp), with
/// the interpreter as the oracle. Seeded random expressions over the
/// lowering subset, fed hostile inputs bound the way the Mantle load hooks
/// bind them, must give the same bits and the same step count both ways;
/// everything outside the subset must stay on the interpreter.

#include "lua/lower.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/rng.hpp"

namespace mantle::lua {
namespace {

constexpr const char* kPop[] = {"IRD", "IWR", "READDIR", "FETCH", "STORE"};
constexpr const char* kFields[] = {"auth", "all", "cpu", "mem",
                                   "q",    "req", "load", "alive"};
constexpr std::size_t kNumInputs = 13;

/// The load hooks' inputs: five pop-counter globals, then the row fields.
std::vector<std::string> input_names() {
  std::vector<std::string> v(std::begin(kPop), std::end(kPop));
  for (const char* f : kFields) v.push_back(std::string("MDSs[i].") + f);
  return v;
}

/// Bind `in` the way metaload() and mdsload() do: the pop counters as
/// globals, the row fields in a one-row MDSs table at index `idx`.
void bind_inputs(Interp& interp, const std::vector<double>& in, double idx) {
  for (std::size_t k = 0; k < 5; ++k) interp.set_global(kPop[k], Value(in[k]));
  TablePtr row = make_table();
  for (std::size_t f = 0; f < 8; ++f)
    row->set_str(kFields[f], Value(in[5 + f]));
  TablePtr mdss = make_table();
  mdss->set_num(idx, Value(row));
  interp.set_global("MDSs", Value(mdss));
  interp.set_global("i", Value(idx));
}

bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
constexpr double kHuge = std::numeric_limits<double>::max();

/// Source-level literals; the last three fold to inf, -inf and NaN.
constexpr const char* kLiterals[] = {
    "0",      "-0",     "1",          "-1",       "0.5",    "0.8",
    "2",      "3",      "10",         "-8",       "7.25",   "1e300",
    "-1e308", "1.7976931348623157e308",            "4.9406564584124654e-324",
    "-4.9406564584124654e-324",       "2.2250738585072009e-308",
    "(1/0)",  "(-1/0)", "(0/0)",
};

class ExprGen {
 public:
  explicit ExprGen(Rng& rng) : rng_(rng) {}

  /// A random subset expression at most `depth` operators deep.
  std::string expr(int depth) {
    const std::uint64_t pick = rng_.uniform(0, depth > 0 ? 9 : 2);
    if (pick == 0) return literal();
    if (pick <= 2) return input();
    if (pick == 3) return "-(" + expr(depth - 1) + ")";
    static constexpr const char* kOps[] = {"+", "-", "*", "/", "%", "^"};
    return "(" + expr(depth - 1) + " " + kOps[rng_.uniform(0, 5)] + " " +
           expr(depth - 1) + ")";
  }

 private:
  std::string literal() {
    if (rng_.uniform(0, 3) == 0) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    rng_.uniform_real(-1000.0, 1000.0));
      return buf[0] == '-' ? std::string("(") + buf + ")" : buf;
    }
    return kLiterals[rng_.uniform(0, std::size(kLiterals) - 1)];
  }

  std::string input() {
    const std::uint64_t k = rng_.uniform(0, kNumInputs - 1);
    if (k < 5) return kPop[k];
    // Both spellings of a constant key parse to the same read.
    return rng_.uniform(0, 1) == 0
               ? std::string("MDSs[i][\"") + kFields[k - 5] + "\"]"
               : std::string("MDSs[i].") + kFields[k - 5];
  }

  Rng& rng_;
};

/// Finite values, zeros, negatives, infinities, NaN, subnormals, and the
/// operands of x % 0, 0/0 and (-8)^(1/3).
double hostile_value(Rng& rng) {
  static constexpr double kPool[] = {0.0,   -0.0,    1.0,     -1.0,  2.0,
                                     -8.0,  1.0 / 3, 0.5,     kHuge, -kHuge,
                                     kInf,  -kInf,   kNaN,    kDenorm,
                                     -kDenorm, 1e-310, 4000.0};
  if (rng.uniform(0, 2) == 0) return rng.uniform_real(-1e6, 1e6);
  return kPool[rng.uniform(0, std::size(kPool) - 1)];
}

void expect_same(const CompiledChunk& cc, const NumProgram& prog,
                 Interp& interp, const std::vector<double>& in,
                 const std::string& src) {
  bind_inputs(interp, in, 3.0);
  const RunResult r = interp.run(cc);
  ASSERT_TRUE(r.ok) << src << ": " << r.error;
  ASSERT_TRUE(r.first().is_number()) << src;
  const double want = r.first().number();
  const double got = prog.run(in.data());
  EXPECT_TRUE(same_bits(got, want))
      << src << ": lowered " << got << ", interpreter " << want;
  EXPECT_EQ(prog.steps, interp.steps_used()) << src;
}

TEST(LowerDifferential, RandomExpressionsMatchTheInterpreter) {
  Rng rng(20151115);
  ExprGen gen(rng);
  const std::vector<std::string> names = input_names();
  Interp interp;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string src = gen.expr(static_cast<int>(rng.uniform(0, 7)));
    const CompiledChunk cc = compile_expr(src, "mdsload");
    ASSERT_TRUE(cc.ok()) << src << ": " << cc.error;
    const std::optional<NumProgram> prog = lower_expr(cc, names, 0);
    ASSERT_TRUE(prog.has_value()) << src;
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> in(kNumInputs);
      for (double& x : in) x = hostile_value(rng);
      expect_same(cc, *prog, interp, in, src);
    }
  }
}

TEST(LowerDifferential, IeeeCornerPairs) {
  // x % 0 and inf % y are NaN under floored modulo, 0/0 is NaN, and a
  // negative base to a fractional power is NaN, not a real cube root.
  const std::vector<std::string> names = input_names();
  Interp interp;
  struct Case {
    const char* src;
    double a;
    double b;
  };
  const Case cases[] = {
      {"IRD % IWR", 5.0, 0.0},     {"IRD % IWR", -5.0, -0.0},
      {"IRD % IWR", kInf, 3.0},    {"IRD % IWR", 3.0, kInf},
      {"IRD % IWR", -3.0, kInf},   {"IRD % IWR", 5.5, -2.0},
      {"IRD / IWR", 0.0, 0.0},     {"IRD / IWR", -1.0, 0.0},
      {"IRD / IWR", 1.0, -0.0},    {"IRD ^ IWR", -8.0, 1.0 / 3},
      {"IRD ^ IWR", 0.0, -1.0},    {"IRD ^ IWR", kNaN, 0.0},
      {"-IRD", 0.0, 0.0},          {"IRD - IWR", kInf, kInf},
      {"IRD * IWR", kDenorm, 0.5}, {"IRD * IWR", kHuge, 2.0},
  };
  for (const Case& c : cases) {
    const CompiledChunk cc = compile_expr(c.src, "metaload");
    const std::optional<NumProgram> prog = lower_expr(cc, names, 0);
    ASSERT_TRUE(prog.has_value()) << c.src;
    std::vector<double> in(kNumInputs, 1.0);
    in[0] = c.a;
    in[1] = c.b;
    expect_same(cc, *prog, interp, in, c.src);
  }
}

TEST(LowerDifferential, PaperLoadHooksAndTheirStepCounts) {
  const std::vector<std::string> names = input_names();
  Interp interp;
  struct Case {
    const char* src;
    std::uint64_t steps;
  };
  const Case cases[] = {
      // Table 1: 4 reads at 5 steps, 3 literals, 3 products, 3 sums and
      // the return.
      {"0.8*MDSs[i][\"auth\"] + 0.2*MDSs[i][\"all\"] + MDSs[i][\"req\"] + "
       "10*MDSs[i][\"q\"]",
       30},
      {"IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE", 16},
      {"MDSs[i][\"all\"]", 6},
      {"IWR", 2},
      {"IRD + IWR", 4},
      {"-(1 + 2)", 2},  // folded at parse time to one literal
      {"-IRD", 3},
  };
  Rng rng(7);
  for (const Case& c : cases) {
    const CompiledChunk cc = compile_expr(c.src, "mdsload");
    const std::optional<NumProgram> prog = lower_expr(cc, names, 0);
    ASSERT_TRUE(prog.has_value()) << c.src;
    EXPECT_EQ(prog->steps, c.steps) << c.src;
    std::vector<double> in(kNumInputs);
    for (double& x : in) x = hostile_value(rng);
    expect_same(cc, *prog, interp, in, c.src);
  }
}

TEST(LowerDifferential, OperandStackDepthLimit) {
  // `IWR - (IWR - (... IRD))` keeps one operand per level on the stack.
  const auto chain = [](std::size_t leaves) {
    std::string s = "IRD";
    for (std::size_t k = 1; k < leaves; ++k) s = "IWR - (" + s + ")";
    return s;
  };
  const std::vector<std::string> names = input_names();
  const std::string at_limit = chain(NumProgram::kMaxStack);
  const CompiledChunk cc = compile_expr(at_limit);
  const std::optional<NumProgram> prog = lower_expr(cc, names, 0);
  ASSERT_TRUE(prog.has_value());
  Interp interp;
  std::vector<double> in(kNumInputs, 0.25);
  in[0] = 3.0;
  expect_same(cc, *prog, interp, in, at_limit);

  EXPECT_FALSE(lower_expr(compile_expr(chain(NumProgram::kMaxStack + 1)),
                          names, 0)
                   .has_value());
  // A long left-leaning sum needs only two slots, however long.
  std::string sum = "IRD";
  for (int k = 0; k < 200; ++k) sum += " + IWR";
  EXPECT_TRUE(lower_expr(compile_expr(sum), names, 0).has_value());
}

TEST(LowerDeclines, ExpressionsOutsideTheSubset) {
  const std::vector<std::string> names = input_names();
  const char* exprs[] = {
      // calls and length
      "max(IRD, 1)", "math.floor(IRD)", "#MDSs", "IRD + #MDSs",
      // comparisons and logic
      "IRD < 1", "IRD <= 1", "IRD > 1", "IRD >= 1", "IRD == 1", "IRD ~= 1",
      "IRD and 1", "IRD or 1", "not IRD",
      // strings and concatenation
      "\"1\"", "'1' + IRD", "IRD .. 'x'",
      // other literals and constructors
      "nil", "true", "false", "{}", "function() return 1 end",
      // unknown globals and partial paths
      "foo", "IRD + foo", "i", "MDSs", "MDSs[i]", "MDSs.i.all",
      // rows read any other way than MDSs[i]["<field>"]
      "MDSs[i+1][\"all\"]", "MDSs[1][\"all\"]", "MDSs[i].bogus",
      "MDSs[i][\"all\"][\"x\"]", "MDSs[IRD].all", "MDSs[i][i]",
  };
  for (const char* e : exprs) {
    const CompiledChunk cc = compile_expr(e);
    ASSERT_TRUE(cc.ok()) << e << ": " << cc.error;
    EXPECT_FALSE(lower_expr(cc, names, 0).has_value()) << e;
  }
}

TEST(LowerDeclines, AnythingButOneReturnOfOneExpression) {
  const std::vector<std::string> names = input_names();
  const char* chunks[] = {
      "x = 1 return (IRD)",  "local x = IRD return x", "return IRD, IWR",
      "return",              "IRD = 1",                "do return IRD end",
      "return ((",
  };
  for (const char* src : chunks)
    EXPECT_FALSE(lower_expr(compile(src), names, 0).has_value()) << src;
  EXPECT_TRUE(lower_expr(compile("return IRD"), names, 0).has_value());
}

TEST(LowerDeclines, StepCountAboveTheBudget) {
  // IRD + IWR costs 4 steps: the return and three nodes.
  const std::vector<std::string> names = input_names();
  const CompiledChunk cc = compile_expr("IRD + IWR");
  EXPECT_FALSE(lower_expr(cc, names, 3).has_value());
  EXPECT_TRUE(lower_expr(cc, names, 4).has_value());
  EXPECT_TRUE(lower_expr(cc, names, 0).has_value());  // 0 = unlimited

  // The interpreter draws the same line.
  Interp interp;
  bind_inputs(interp, std::vector<double>(kNumInputs, 1.0), 1.0);
  interp.set_budget(3);
  EXPECT_FALSE(interp.run(cc).ok);
  interp.set_budget(4);
  const RunResult r = interp.run(cc);
  EXPECT_TRUE(r.ok) << r.error;
}

}  // namespace
}  // namespace mantle::lua

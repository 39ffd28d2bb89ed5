/// Differential tests for lowered numeric programs (lua/lower.hpp), with
/// the interpreter as the oracle. Seeded random expressions and
/// comparisons over the lowering subset, and Table 1 style `when` chunks
/// built from them, fed hostile inputs bound the way the Mantle hooks
/// bind them, must give the same bits (or truth) and the same step count
/// both ways; everything outside the subset must stay on the interpreter.

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
constexpr std::size_t kNumInputs = 14;

/// The load hooks' inputs (five pop-counter globals, then the row
/// fields), and last the length of MDSs.
std::vector<std::string> input_names() {
  std::vector<std::string> v(std::begin(kPop), std::end(kPop));
  for (const char* f : kFields) v.push_back(std::string("MDSs[i].") + f);
  v.push_back("#MDSs");
  return v;
}

/// Bind `in` the way metaload() and mdsload() do: the pop counters as
/// globals, the row fields in an MDSs row at index `idx`. MDSs holds that
/// row at keys 1..in[13] (at least `idx`), and around them keys that
/// leave its border at in[13]: 0, -1, a fraction and one past a gap.
void bind_inputs(Interp& interp, const std::vector<double>& in, double idx) {
  for (std::size_t k = 0; k < 5; ++k) interp.set_global(kPop[k], Value(in[k]));
  TablePtr row = make_table();
  for (std::size_t f = 0; f < 8; ++f)
    row->set_str(kFields[f], Value(in[5 + f]));
  TablePtr mdss = make_table();
  for (double k = 1.0; k <= in[13]; k += 1.0) mdss->set_num(k, Value(row));
  for (const double k : {0.0, -1.0, 1.5, in[13] + 2.0})
    mdss->set_num(k, Value(row));
  interp.set_global("MDSs", Value(mdss));
  interp.set_global("i", Value(idx));
}

/// A border for MDSs that keeps index 3 inside it.
double random_border(Rng& rng) {
  return static_cast<double>(rng.uniform(3, 9));
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

  /// A random comparison of two subset expressions.
  std::string comparison(int depth) {
    static constexpr const char* kOrder[] = {"<", "<=", ">", ">="};
    return expr(depth) + " " + kOrder[rng_.uniform(0, 3)] + " " + expr(depth);
  }

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
    // `^` binds tighter than `#`: `#MDSs ^ 2` is `#(MDSs ^ 2)`.
    if (k == 13) return "(#MDSs)";
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

/// Hostile values for every input but #MDSs, which gets a border.
std::vector<double> random_inputs(Rng& rng) {
  std::vector<double> in(kNumInputs);
  for (double& x : in) x = hostile_value(rng);
  in[13] = random_border(rng);
  return in;
}

void expect_same(const CompiledChunk& cc, const NumProgram& prog,
                 Interp& interp, const std::vector<double>& in,
                 const std::string& src) {
  bind_inputs(interp, in, 3.0);
  const RunResult r = interp.run(cc);
  ASSERT_TRUE(r.ok) << src << ": " << r.error;
  const double got = prog.run(in.data());
  if (prog.boolean) {
    ASSERT_TRUE(r.first().is_bool()) << src;
    EXPECT_EQ(got, r.first().boolean() ? 1.0 : 0.0) << src;
  } else {
    ASSERT_TRUE(r.first().is_number()) << src;
    const double want = r.first().number();
    EXPECT_TRUE(same_bits(got, want))
        << src << ": lowered " << got << ", interpreter " << want;
  }
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
    EXPECT_FALSE(prog->boolean) << src;
    for (int rep = 0; rep < 4; ++rep)
      expect_same(cc, *prog, interp, random_inputs(rng), src);
  }
}

TEST(LowerDifferential, RandomComparisonsMatchTheInterpreter) {
  Rng rng(2015);
  ExprGen gen(rng);
  const std::vector<std::string> names = input_names();
  Interp interp;
  int held = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string src =
        gen.comparison(static_cast<int>(rng.uniform(0, 4)));
    const CompiledChunk cc = compile_expr(src, "when");
    ASSERT_TRUE(cc.ok()) << src << ": " << cc.error;
    const std::optional<NumProgram> prog = lower_expr(cc, names, 0);
    ASSERT_TRUE(prog.has_value()) << src;
    EXPECT_TRUE(prog->boolean) << src;
    for (int rep = 0; rep < 4; ++rep) {
      const std::vector<double> in = random_inputs(rng);
      expect_same(cc, *prog, interp, in, src);
      held += prog->run(in.data()) != 0.0;
    }
  }
  // Both truth values are well represented.
  EXPECT_GT(held, 3000);
  EXPECT_LT(held, 9000);
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
      // Zeros of either sign are equal, NaN compares false every way,
      // and the infinities order around everything else.
      {"IRD < IWR", 0.0, -0.0},    {"IRD <= IWR", -0.0, 0.0},
      {"IRD >= IWR", 0.0, -0.0},   {"IRD < IWR", kNaN, 1.0},
      {"IRD >= IWR", kNaN, kNaN},  {"IRD > IWR", 1.0, kNaN},
      {"IRD <= IWR", kNaN, kInf},  {"IRD < IWR", -kInf, -kHuge},
      {"IRD > IWR", kInf, kHuge},  {"IRD >= IWR", kInf, kInf},
      {"IRD > IWR", kDenorm, 0.0}, {"IRD < IWR", -kDenorm, -0.0},
  };
  for (const Case& c : cases) {
    const CompiledChunk cc = compile_expr(c.src, "metaload");
    const std::optional<NumProgram> prog = lower_expr(cc, names, 0);
    ASSERT_TRUE(prog.has_value()) << c.src;
    std::vector<double> in(kNumInputs, 1.0);
    in[0] = c.a;
    in[1] = c.b;
    in[13] = 3.0;
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
      {"#MDSs", 3},  // the length node and the global it reads
      {"IRD < 1", 4},
      {"MDSs[i][\"load\"] > IRD/#MDSs", 11},  // Table 1's when, plus the return
  };
  Rng rng(7);
  for (const Case& c : cases) {
    const CompiledChunk cc = compile_expr(c.src, "mdsload");
    const std::optional<NumProgram> prog = lower_expr(cc, names, 0);
    ASSERT_TRUE(prog.has_value()) << c.src;
    EXPECT_EQ(prog->steps, c.steps) << c.src;
    expect_same(cc, *prog, interp, random_inputs(rng), c.src);
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
  in[13] = 3.0;
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
      // calls, and lengths other than #<input global>
      "max(IRD, 1)", "math.floor(IRD)", "#IRD", "#MDSs[i]", "#'abc'", "#{}",
      // equality and logic
      "IRD == 1", "IRD ~= 1", "IRD and 1", "IRD or 1", "not IRD",
      "IRD < 1 and IWR < 1", "not (IRD < 1)",
      // a comparison anywhere but outermost: the interpreter raises an
      // error on arithmetic, negation or ordering over a boolean
      "(IRD < 1) + 1", "-(IRD < 1)", "(IRD < 1) < 1", "1 <= (IRD > 1)",
      "(IRD < 1) == true",
      // ordering over strings
      "IRD < '1'", "'a' < 'b'",
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

/// `if <cond> then` completed the way MantleBalancer completes it.
std::string then_chunk(const std::string& cond) {
  return "if " + cond + " then\n__go = 1 end";
}

/// Run `cc` on the interpreter with `__go` preset to 0 and check that the
/// lowered `p` predicts whether it set `__go` to 1 and the steps it took.
void expect_same_then(const CompiledChunk& cc, const ThenProgram& p,
                      Interp& interp, const std::vector<double>& in,
                      const std::string& src) {
  bind_inputs(interp, in, 3.0);
  interp.set_global("__go", Value(0.0));
  const RunResult r = interp.run(cc);
  ASSERT_TRUE(r.ok) << src << ": " << r.error;
  const Value go = interp.get_global("__go");
  ASSERT_TRUE(go.is_number()) << src;
  const bool taken = p.cond.run(in.data()) != 0.0;
  EXPECT_EQ(go.number(), taken ? 1.0 : 0.0) << src;
  EXPECT_EQ(interp.steps_used(), taken ? p.steps_taken : p.steps_not_taken)
      << src;
}

TEST(LowerThen, RandomConditionsMatchTheInterpreter) {
  Rng rng(1);
  ExprGen gen(rng);
  const std::vector<std::string> names = input_names();
  Interp interp;
  int taken = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string src =
        then_chunk(gen.comparison(static_cast<int>(rng.uniform(0, 4))));
    const CompiledChunk cc = compile(src, "when");
    ASSERT_TRUE(cc.ok()) << src << ": " << cc.error;
    const std::optional<ThenProgram> p = lower_then(cc, names, 0);
    ASSERT_TRUE(p.has_value()) << src;
    EXPECT_EQ(p->steps_taken, p->steps_not_taken + 2) << src;
    for (int rep = 0; rep < 3; ++rep) {
      const std::vector<double> in = random_inputs(rng);
      expect_same_then(cc, *p, interp, in, src);
      taken += p->cond.run(in.data()) != 0.0;
    }
  }
  EXPECT_GT(taken, 2000);
  EXPECT_LT(taken, 4000);
}

TEST(LowerThen, Table1WhenTakesElevenOrThirteenSteps) {
  // The `if`, then 5 for the row read, 1 for `>`, 1 for `/`, 1 for
  // `total` and 2 for `#MDSs`; taken, 2 more for `__go = 1`.
  const std::vector<std::string> names = {
      "MDSs[whoami].load", "whoami", "total", "#MDSs"};
  const std::string src = then_chunk("MDSs[whoami][\"load\"] > total/#MDSs");
  const CompiledChunk cc = compile(src, "when");
  const std::optional<ThenProgram> p = lower_then(cc, names, 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->steps_not_taken, 11u);
  EXPECT_EQ(p->steps_taken, 13u);
  for (const double load : {90.0, 10.0, 40.0, kNaN}) {
    Interp interp;
    TablePtr mdss = make_table();
    for (double k = 1.0; k <= 3.0; k += 1.0) {
      TablePtr row = make_table();
      row->set_str("load", Value(k == 2.0 ? load : 5.0));
      mdss->set_num(k, Value(row));
    }
    interp.set_global("MDSs", Value(mdss));
    interp.set_global("whoami", Value(2.0));
    interp.set_global("total", Value(120.0));
    interp.set_global("__go", Value(0.0));
    const RunResult r = interp.run(cc);
    ASSERT_TRUE(r.ok) << r.error;
    const double in[] = {load, 2.0, 120.0, 3.0};
    const bool taken = p->cond.run(in) != 0.0;
    EXPECT_EQ(taken, load > 40.0) << load;
    EXPECT_EQ(interp.get_global("__go").number(), taken ? 1.0 : 0.0) << load;
    EXPECT_EQ(interp.steps_used(), taken ? 13u : 11u) << load;
  }
}

TEST(LowerThen, BudgetBoundaryIsTheTakenPath) {
  // IRD < IWR costs 3 steps: not taken 4, taken 6. The interpreter only
  // runs out of budget on the taken path below 6, so the lowering
  // declines there rather than decide which path throws.
  const std::vector<std::string> names = input_names();
  const CompiledChunk cc = compile(then_chunk("IRD < IWR"), "when");
  for (const std::uint64_t budget : {0u, 6u, 100u})
    EXPECT_TRUE(lower_then(cc, names, budget).has_value()) << budget;
  for (const std::uint64_t budget : {1u, 4u, 5u})
    EXPECT_FALSE(lower_then(cc, names, budget).has_value()) << budget;

  Interp interp;
  std::vector<double> in(kNumInputs, 1.0);
  in[13] = 3.0;
  for (const bool take : {false, true}) {
    in[1] = take ? 2.0 : 0.0;  // IWR
    bind_inputs(interp, in, 3.0);
    interp.set_budget(5);
    EXPECT_EQ(interp.run(cc).ok, !take) << take;
    interp.set_budget(6);
    EXPECT_TRUE(interp.run(cc).ok) << take;
  }
}

TEST(LowerThen, DeclinesAnythingButOneComparisonSettingTheFlag) {
  const std::vector<std::string> names = {
      "MDSs[whoami].load", "whoami", "total", "#MDSs", "IRD"};
  const char* chunks[] = {
      // logic and equality in the condition
      "if IRD > 1 and IRD < 2 then\n__go = 1 end",
      "if IRD > 1 or IRD < 2 then\n__go = 1 end",
      "if not (IRD > 1) then\n__go = 1 end",
      "if IRD == 1 then\n__go = 1 end", "if IRD ~= 1 then\n__go = 1 end",
      // no comparison, a string operand, a row read that is no input
      "if IRD then\n__go = 1 end", "if IRD > '1' then\n__go = 1 end",
      "if MDSs[whoami+1][\"load\"] > total then\n__go = 1 end",
      // any other body
      "if IRD > 1 then\n__go = 2 end", "if IRD > 1 then\ngo = 1 end",
      "if IRD > 1 then\n__go = IRD end",
      "if IRD > 1 then\nlocal __go = 1 end",
      "if IRD > 1 then x = 1\n__go = 1 end",
      "if IRD > 1 then\nend",
      // else, elseif, and statements around the if
      "if IRD > 1 then else\n__go = 1 end",
      "if IRD > 1 then __go = 1 else\n__go = 1 end",
      "if IRD > 1 then elseif IRD > 2 then\n__go = 1 end",
      "x = 1 if IRD > 1 then\n__go = 1 end",
      "if IRD > 1 then\n__go = 1 end return true",
      "return IRD > 1",
  };
  for (const char* src : chunks) {
    const CompiledChunk cc = compile(src, "when");
    ASSERT_TRUE(cc.ok()) << src << ": " << cc.error;
    EXPECT_FALSE(lower_then(cc, names, 0).has_value()) << src;
  }
  EXPECT_TRUE(
      lower_then(compile(then_chunk("IRD > 1")), names, 0).has_value());
}

TEST(LowerLength, MatchesTheSearchLoopOnRandomTables) {
  // The border as Table::length found it before it walked the keys.
  const auto search = [](const Table& t) {
    double n = 0.0;
    while (t.num_keys.count(n + 1.0) != 0) n += 1.0;
    return n;
  };
  Rng rng(159);
  int nonzero = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    Table t;
    const auto keys = rng.uniform(0, 24);
    for (std::uint64_t k = 0; k < keys; ++k) {
      double key = 0.0;
      switch (rng.uniform(0, 5)) {
        case 0:  // integers near the start, so runs form and holes appear
        case 1: key = static_cast<double>(rng.uniform(1, 12)); break;
        case 2:  // fractions between integers
          key = static_cast<double>(rng.uniform(0, 12)) +
                rng.uniform_real(0.01, 0.99);
          break;
        case 3:  // zero, negatives, and -0
          key = -static_cast<double>(rng.uniform(0, 3));
          break;
        case 4: key = rng.uniform(0, 1) == 0 ? kInf : -kInf; break;
        default:  // far past any gap
          key = static_cast<double>(rng.uniform(13, 1000));
      }
      t.set_num(key, Value(1.0));
    }
    EXPECT_EQ(t.length(), search(t)) << "table " << iter;
    nonzero += t.length() != 0.0;
  }
  EXPECT_GT(nonzero, 1000);
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

/// Differential tests for lowered programs (lua/lower.hpp), with the
/// interpreter as the oracle. Seeded random expressions and comparisons
/// over the lowering subset, Table 1 style `when` chunks built from them,
/// and random `where` statement chunks, fed hostile inputs bound the way
/// the Mantle hooks bind them, must give the same bits (or truth), the
/// same writes and the same step count both ways, and a lowered chunk
/// must stop exactly where the interpreter runs out of budget; everything
/// outside the subset must stay on the interpreter.

#include "lua/lower.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

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

// ---------------------------------------------------------------------------
// `where` statement chunks (lower_chunk)
// ---------------------------------------------------------------------------

/// What MantleBalancer binds for `where`.
const ViewBinding& where_binding() {
  static const ViewBinding b = [] {
    ViewBinding v;
    v.scalars = {"whoami", "total", "authmetaload", "allmetaload"};
    v.rows = "MDSs";
    v.fields.assign(std::begin(kFields), std::end(kFields));
    v.targets = "targets";
    v.reserved = {"i", "IRD", "IWR", "READDIR", "FETCH", "STORE", "go", "__go"};
    return v;
  }();
  return b;
}

/// A view: the four scalars and n rows of eight fields.
struct View {
  double scalars[4] = {};
  std::size_t n = 0;
  std::vector<double> rows;  // row-major, 8 per row
};

View random_view(Rng& rng) {
  View v;
  v.n = static_cast<std::size_t>(rng.uniform(1, 6));
  v.scalars[0] = static_cast<double>(rng.uniform(1, v.n));
  for (int k = 1; k < 4; ++k) v.scalars[k] = hostile_value(rng);
  v.rows.resize(v.n * 8);
  for (double& x : v.rows) x = hostile_value(rng);
  return v;
}

/// The globals random chunks assign, preset to a string before each run so
/// that a read the lowering let through, or a write it missed, shows.
constexpr const char* kChunkGlobals[] = {"g1", "g2", "avg", "deficit"};

/// Bind `v` the way MantleBalancer's view bind does.
void bind_view(Interp& interp, const View& v) {
  TablePtr mdss = make_table();
  TablePtr targets = make_table();
  for (std::size_t r = 0; r < v.n; ++r) {
    TablePtr row = make_table();
    for (std::size_t f = 0; f < 8; ++f)
      row->set_str(kFields[f], Value(v.rows[r * 8 + f]));
    mdss->set_num(static_cast<double>(r + 1), Value(row));
    targets->set_num(static_cast<double>(r + 1), Value(0.0));
  }
  interp.set_global("MDSs", Value(mdss));
  interp.set_global("targets", Value(targets));
  const std::vector<std::string>& names = where_binding().scalars;
  for (std::size_t k = 0; k < names.size(); ++k)
    interp.set_global(names[k], Value(v.scalars[k]));
  for (const char* g : kChunkGlobals) interp.set_global(g, Value("unset"));
}

/// Run `cc` and its lowering over `v` with `budget`, and check that both
/// finish or stop alike and, finished, leave the same targets and globals
/// after the same steps. Returns the lowered result.
ChunkProgram::Result expect_same_chunk(const CompiledChunk& cc,
                                       const ChunkProgram& prog,
                                       const View& v, std::uint64_t budget,
                                       const std::string& src) {
  Interp interp;
  bind_view(interp, v);
  interp.set_budget(budget);
  const RunResult r = interp.run(cc);
  std::vector<double> targets(v.n, 0.0);
  double globals[ChunkProgram::kMaxGlobals];
  const ChunkProgram::Result got =
      prog.run(v.scalars, v.rows.data(), v.n, targets.data(), globals, budget);
  const std::string what = src + "\nbudget " + std::to_string(budget);
  EXPECT_EQ(got.finished, r.ok) << what << ": " << r.error;
  if (!got.finished || !r.ok) {
    EXPECT_NE(r.error.find("instruction budget exceeded"), std::string::npos)
        << what << ": " << r.error;
    EXPECT_EQ(interp.steps_used(), budget + 1) << what;
    return got;
  }
  EXPECT_EQ(got.steps, interp.steps_used()) << what;
  const Value t = interp.get_global("targets");
  EXPECT_EQ(t.table()->size(), v.n) << what;
  for (std::size_t k = 0; k < v.n; ++k) {
    const Value x = t.table()->get_num(static_cast<double>(k + 1));
    EXPECT_TRUE(x.is_number() && same_bits(x.number(), targets[k]))
        << what << ": targets[" << k + 1 << "] " << targets[k];
  }
  for (std::size_t g = 0; g < prog.globals.size(); ++g) {
    const Value x = interp.get_global(prog.globals[g]);
    if ((got.assigned >> g & 1) == 0) {
      EXPECT_TRUE(x.is_string()) << what << ": " << prog.globals[g];
      continue;
    }
    EXPECT_TRUE(x.is_number() && same_bits(x.number(), globals[g]))
        << what << ": " << prog.globals[g] << " " << globals[g];
  }
  return got;
}

/// Random chunks inside lower_chunk's subset. Reads of assigned globals
/// follow the lowering's rule (assigned on every path to the read), so
/// every chunk lowers.
class ChunkGen {
 public:
  explicit ChunkGen(Rng& rng) : rng_(rng) {}

  std::string chunk() {
    assigned_.clear();
    loops_.clear();
    std::string s;
    for (std::uint64_t k = rng_.uniform(1, 5); k > 0; --k) s += stmt(0);
    return s;
  }

 private:
  std::string stmt(int depth) {
    const std::uint64_t pick = rng_.uniform(0, depth < 3 ? 5 : 1);
    if (pick <= 1 && !loops_.empty() && rng_.uniform(0, 1) == 0)
      return "targets[" + loop_var() + "] = " + num(2) + "\n";
    if (pick <= 1) {
      const std::string g = kChunkGlobals[rng_.uniform(0, 3)];
      const std::string rhs = num(2);  // read before the write
      assigned_.insert(g);
      return g + " = " + rhs + "\n";
    }
    if (pick <= 3 && loops_.size() < 2) {
      // Nested loops sometimes shadow the outer variable.
      static constexpr const char* kVars[] = {"i", "j", "i"};
      const std::string var = kVars[rng_.uniform(0, 2)];
      const std::set<std::string> before = assigned_;
      loops_.push_back(var);
      std::string s = "for " + var + " = 1, #MDSs do\n";
      for (std::uint64_t k = rng_.uniform(1, 3); k > 0; --k)
        s += stmt(depth + 1);
      loops_.pop_back();
      assigned_ = before;
      return s + "end\n";
    }
    const std::set<std::string> before = assigned_;
    std::set<std::string> after;
    bool first = true;
    std::string s;
    const std::uint64_t clauses = rng_.uniform(1, 3);
    for (std::uint64_t c = 0; c < clauses; ++c) {
      assigned_ = before;
      s += (c == 0 ? "if " : "elseif ") + cond(2) + " then\n";
      for (std::uint64_t k = rng_.uniform(0, 2); k > 0; --k)
        s += stmt(depth + 1);
      after = first ? assigned_ : intersect(after, assigned_);
      first = false;
    }
    assigned_ = before;
    if (rng_.uniform(0, 1) == 0) {
      s += "else\n";
      for (std::uint64_t k = rng_.uniform(0, 2); k > 0; --k)
        s += stmt(depth + 1);
      assigned_ = intersect(after, assigned_);
    }
    return s + "end\n";
  }

  std::string num(int depth) {
    const std::uint64_t pick = rng_.uniform(0, depth > 0 ? 11 : 6);
    switch (pick) {
      case 0: return literal();
      case 1: {
        // `^` binds tighter than `#`: `#MDSs ^ 2` is `#(MDSs ^ 2)`.
        static constexpr const char* kScalars[] = {"whoami", "total",
                                                   "authmetaload",
                                                   "allmetaload", "(#MDSs)"};
        return kScalars[rng_.uniform(0, 4)];
      }
      case 2: return row("whoami");
      case 3:
        if (!loops_.empty()) return row(loop_var());
        return literal();
      case 4:
        if (!loops_.empty()) return loop_var();
        return "(#MDSs)";
      case 5:
      case 6:
        if (!assigned_.empty()) {
          auto it = assigned_.begin();
          std::advance(it, rng_.uniform(0, assigned_.size() - 1));
          return *it;
        }
        return literal();
      case 7: return "-(" + num(depth - 1) + ")";
      default: {
        static constexpr const char* kOps[] = {"+", "-", "*", "/", "%", "^"};
        return "(" + num(depth - 1) + " " + kOps[rng_.uniform(0, 5)] + " " +
               num(depth - 1) + ")";
      }
    }
  }

  std::string cond(int depth) {
    const std::uint64_t pick = rng_.uniform(0, depth > 0 ? 5 : 2);
    if (pick <= 2) {
      static constexpr const char* kCmp[] = {"==", "~=", "<", "<=", ">", ">="};
      return num(1) + " " + kCmp[rng_.uniform(0, 5)] + " " + num(1);
    }
    if (pick == 3) return "not (" + cond(depth - 1) + ")";
    return "(" + cond(depth - 1) + (pick == 4 ? " and " : " or ") +
           cond(depth - 1) + ")";
  }

  std::string literal() {
    static constexpr const char* kPool[] = {"0", "1", "-1", "0.5", "2",
                                            "3", "10", "(0/0)", "(1/0)", "-0"};
    return kPool[rng_.uniform(0, std::size(kPool) - 1)];
  }

  std::string row(const std::string& key) {
    const char* f = kFields[rng_.uniform(0, 7)];
    return rng_.uniform(0, 1) == 0 ? "MDSs[" + key + "][\"" + f + "\"]"
                                   : "MDSs[" + key + "]." + f;
  }

  std::string loop_var() { return loops_[rng_.uniform(0, loops_.size() - 1)]; }

  static std::set<std::string> intersect(const std::set<std::string>& a,
                                         const std::set<std::string>& b) {
    std::set<std::string> out;
    for (const std::string& x : a)
      if (b.count(x) != 0) out.insert(x);
    return out;
  }

  Rng& rng_;
  std::set<std::string> assigned_;
  std::vector<std::string> loops_;
};

TEST(LowerChunkDifferential, RandomChunksMatchTheInterpreter) {
  Rng rng(2015);
  ChunkGen gen(rng);
  int assigned = 0;
  int writes = 0;
  int stopped = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const std::string src = gen.chunk();
    const CompiledChunk cc = compile(src, "where");
    ASSERT_TRUE(cc.ok()) << src << ": " << cc.error;
    const std::optional<ChunkProgram> prog = lower_chunk(cc, where_binding());
    ASSERT_TRUE(prog.has_value()) << src;
    for (int rep = 0; rep < 3; ++rep) {
      const View v = random_view(rng);
      const ChunkProgram::Result full = expect_same_chunk(cc, *prog, v, 0, src);
      ASSERT_TRUE(full.finished) << src;
      assigned += full.assigned != 0;
      writes += src.find("targets[") != std::string::npos;
      // Budgets below, at and above the steps this view takes.
      const std::uint64_t s = full.steps;
      for (const std::uint64_t budget :
           {s, s + 1, s > 1 ? s - 1 : s, s > 1 ? rng.uniform(1, s - 1) : s}) {
        stopped += !expect_same_chunk(cc, *prog, v, budget, src).finished;
        if (HasFailure()) return;
      }
    }
  }
  // The chunks assign globals, write targets, and run out of budget.
  EXPECT_GT(assigned, 2000);
  EXPECT_GT(writes, 1000);
  EXPECT_GT(stopped, 4000);
}

/// Table 1's `where`, as core::scripts::original() holds it.
constexpr const char* kTable1Where = R"lua(
avg = total/#MDSs
myload = MDSs[whoami]["load"]
excess = myload - avg
deficit = 0
for i=1,#MDSs do
  if i ~= whoami and MDSs[i]["load"] < avg then
    deficit = deficit + (avg - MDSs[i]["load"])
  end
end
if excess > 0 and deficit > 0 then
  for i=1,#MDSs do
    if i ~= whoami and MDSs[i]["load"] < avg then
      targets[i] = excess * (avg - MDSs[i]["load"]) / deficit
    end
  end
end
)lua";

/// Three ranks at loads 90, 10 and 20, seen from the first.
View table1_view() {
  View v;
  v.n = 3;
  v.scalars[0] = 1.0;
  v.scalars[1] = 120.0;
  v.rows.assign(24, 1.0);
  const double loads[] = {90.0, 10.0, 20.0};
  for (std::size_t r = 0; r < 3; ++r) v.rows[r * 8 + 6] = loads[r];
  return v;
}

TEST(LowerChunk, Table1WhereStepsAndBudgetBoundary) {
  const CompiledChunk cc = compile(kTable1Where, "where");
  const std::optional<ChunkProgram> prog = lower_chunk(cc, where_binding());
  ASSERT_TRUE(prog.has_value());
  EXPECT_EQ(prog->globals,
            (std::vector<std::string>{"avg", "myload", "excess", "deficit"}));
  // 17 for the four assignments; 4 + 6 + 23 + 23 for the first loop (the
  // caller's row, then two rows below the mean); 8 for the `if`; and
  // 4 + 6 + 27 + 27 for the second loop.
  const View v = table1_view();
  const ChunkProgram::Result r = expect_same_chunk(cc, *prog, v, 0, "table 1");
  EXPECT_EQ(r.steps, 145u);
  std::vector<double> targets(3, 0.0);
  double globals[ChunkProgram::kMaxGlobals];
  ASSERT_TRUE(prog->run(v.scalars, v.rows.data(), 3, targets.data(), globals,
                        145)
                  .finished);
  // avg 40, excess 50, deficit 30 + 20: targets 30 and 20.
  EXPECT_EQ(targets, (std::vector<double>{0.0, 30.0, 20.0}));
  EXPECT_FALSE(prog->run(v.scalars, v.rows.data(), 3, targets.data(),
                         globals, 144)
                   .finished);
  for (const std::uint64_t budget : {1u, 17u, 144u, 145u, 146u})
    expect_same_chunk(cc, *prog, v, budget, "table 1");
}

TEST(LowerChunk, HostileRowsMatchTheInterpreter) {
  // NaN, infinite and signed-zero loads and totals through Table 1's
  // `where`: comparisons with NaN are false, and targets may come out
  // NaN, infinite or -0 for the host to sanitize.
  const CompiledChunk cc = compile(kTable1Where, "where");
  const std::optional<ChunkProgram> prog = lower_chunk(cc, where_binding());
  ASSERT_TRUE(prog.has_value());
  constexpr double kPool[] = {kNaN, kInf, -kInf, 0.0, -0.0, 10.0, 90.0};
  int nonfinite = 0;
  for (const double total : kPool) {
    for (const double a : kPool) {
      for (const double b : kPool) {
        View v = table1_view();
        v.scalars[1] = total;
        v.rows[6] = a;
        v.rows[8 + 6] = b;
        std::vector<double> targets(3, 0.0);
        double globals[ChunkProgram::kMaxGlobals];
        prog->run(v.scalars, v.rows.data(), 3, targets.data(), globals, 0);
        for (const double t : targets) nonfinite += !std::isfinite(t);
        expect_same_chunk(cc, *prog, v, 0, "table 1");
      }
    }
  }
  EXPECT_GT(nonfinite, 10);
}

TEST(LowerChunk, ShortCircuitsAndBranchesChargeWhatTheyRun) {
  // `and` skips its right side when the left is false, `or` when it is
  // true; only the clause taken charges its body.
  const std::string src =
      "if total > 1 and allmetaload < 1 then g1 = 1\n"
      "elseif total > 2 or not (allmetaload == 0) then g1 = 2\n"
      "elseif total ~= total then g1 = 3\n"
      "else g1 = 4 end\n"
      "g2 = g1 * 2";
  const CompiledChunk cc = compile(src, "where");
  const std::optional<ChunkProgram> prog = lower_chunk(cc, where_binding());
  ASSERT_TRUE(prog.has_value());
  for (const double total : {0.0, 1.5, 3.0, kNaN}) {
    for (const double all : {0.0, 0.5, 5.0, kNaN}) {
      View v = table1_view();
      v.scalars[1] = total;
      v.scalars[3] = all;
      const ChunkProgram::Result r = expect_same_chunk(cc, *prog, v, 0, src);
      EXPECT_EQ(r.assigned, 3u);
    }
  }
}

TEST(LowerChunkDeclines, NearMissesStayOnTheInterpreter) {
  const char* chunks[] = {
      // calls, strings, tables, nil and booleans as values
      "g1 = max(1, 2)", "g1 = 'a'", "g1 = {}", "g1 = nil", "g1 = true",
      "g1 = total .. 1", "g1 = #targets", "g1 = #whoami",
      "g1 = function() return 1 end", "WRstate(1)",
      // other statements
      "while false do end", "local g1 = 1", "do g1 = 1 end", "return",
      "g1, g2 = 1, 2", "g1 = 1, 2", "for i = 1, #MDSs do break end",
      "repeat until true", "for k, v in pairs(MDSs) do end",
      "local function f() end",
      // writes to what the host binds
      "whoami = 1", "total = 1", "authmetaload = 1", "allmetaload = 1",
      "MDSs = 1", "targets = 1", "i = 1", "IRD = 1", "go = 1", "__go = 1",
      "MDSs[1] = 1", "MDSs[whoami].load = 1",
      "for i = 1, #MDSs do i = 2 end",
      // reads of globals not assigned on every path
      "g1 = g2", "g1 = g1 + 1", "g1 = i", "g1 = IRD",
      "for i = 1, #MDSs do g1 = 1 end g2 = g1",
      "if total > 1 then g1 = 1 end g2 = g1",
      "if total > 1 then g1 = 1 elseif total > 2 then g1 = 2 end g2 = g1",
      "if total > 1 then g1 = 1 else g2 = 1 end g2 = g1",
      "for i = 1, #MDSs do g2 = g1 g1 = 1 end",
      // loops other than `for v = 1, #MDSs`
      "for i = 2, #MDSs do end", "for i = 1, #MDSs, 1 do end",
      "for i = 1, 10 do end", "for i = 1, #targets do end",
      "for i = 1.5, #MDSs do end",
      // rows and targets any other way
      "g1 = MDSs[whoami + 1].load", "g1 = MDSs[1].load",
      "g1 = MDSs[total].load", "g1 = MDSs[whoami]", "g1 = MDSs.load",
      "g1 = MDSs[whoami].bogus", "g1 = MDSs[whoami].load.x",
      "g1 = MDSs[whoami][1]", "g1 = targets[1]",
      "for i = 1, #MDSs do g1 = targets[i] end",
      "for i = 1, #MDSs do g1 = MDSs[i] end",
      "targets[1] = 1", "targets[whoami] = 1",
      "for i = 1, #MDSs do targets[i + 1] = 1 end",
      "for i = 1, #MDSs do targets.x = 1 end",
      "for i = 1, #MDSs do targets[i] = total > 1 end",
      "for i = 1, #MDSs do MDSs[i] = 1 end",
      // conditions that are not comparisons of numbers
      "if total then end", "if 1 then end", "if true then end",
      "if not total then end", "if total and total > 1 then end",
      "if (total > 1) == (total > 2) then end", "if total < 'a' then end",
      "g1 = (total > 1) + 1", "g1 = -(total > 1)", "g1 = total > 1",
  };
  for (const char* src : chunks) {
    const CompiledChunk cc = compile(src, "where");
    ASSERT_TRUE(cc.ok()) << src << ": " << cc.error;
    EXPECT_FALSE(lower_chunk(cc, where_binding()).has_value()) << src;
  }
  // The nearest forms inside the subset.
  const char* near[] = {
      "g1 = 1", "g1 = 1 g1 = g1 + 1", "for i = 1, #MDSs do end",
      "for i = 1, #MDSs do targets[i] = MDSs[i].load end",
      "if total > 1 then g1 = 1 else g1 = 2 end g2 = g1",
      "g1 = 0 for i = 1, #MDSs do g1 = g1 + i end g2 = g1",
      "g1 = MDSs[whoami][\"load\"]", "",
  };
  for (const char* src : near)
    EXPECT_TRUE(lower_chunk(compile(src, "where"), where_binding()).has_value())
        << src;
}

TEST(LowerChunkDeclines, LimitsOfLoopsGlobalsAndTheStack) {
  const auto nest = [](std::size_t depth) {
    std::string s;
    for (std::size_t d = 0; d < depth; ++d) s += "for i = 1, #MDSs do ";
    for (std::size_t d = 0; d < depth; ++d) s += "end ";
    return s;
  };
  const auto globals = [](std::size_t count) {
    std::string s;
    for (std::size_t g = 0; g < count; ++g)
      s += "x" + std::to_string(g) + " = 1\n";
    return s;
  };
  const auto chain = [](std::size_t leaves) {
    std::string s = "total";
    for (std::size_t k = 1; k < leaves; ++k) s = "total - (" + s + ")";
    return "g1 = " + s;
  };
  const ViewBinding& b = where_binding();
  const std::size_t loops = ChunkProgram::kMaxLoops;
  const std::size_t vars = ChunkProgram::kMaxGlobals;
  const std::size_t stack = ChunkProgram::kMaxStack;
  EXPECT_TRUE(lower_chunk(compile(nest(loops)), b).has_value());
  EXPECT_FALSE(lower_chunk(compile(nest(loops + 1)), b).has_value());
  EXPECT_TRUE(lower_chunk(compile(globals(vars)), b).has_value());
  EXPECT_FALSE(lower_chunk(compile(globals(vars + 1)), b).has_value());
  EXPECT_TRUE(lower_chunk(compile(chain(stack)), b).has_value());
  EXPECT_FALSE(lower_chunk(compile(chain(stack + 1)), b).has_value());
}

TEST(LowerChunk, NestedLoopsStopAtTheBudget) {
  // Eight nested loops over 6 rows would take 6^8 iterations; with a
  // budget the program stops within one iteration of running out.
  std::string src;
  for (int d = 0; d < 8; ++d) src += "for i = 1, #MDSs do ";
  src += "g1 = i ";
  for (int d = 0; d < 8; ++d) src += "end ";
  const CompiledChunk cc = compile(src, "where");
  const std::optional<ChunkProgram> prog = lower_chunk(cc, where_binding());
  ASSERT_TRUE(prog.has_value());
  View v = table1_view();
  v.n = 6;
  v.rows.assign(48, 1.0);
  const ChunkProgram::Result r = expect_same_chunk(cc, *prog, v, 1000, src);
  EXPECT_FALSE(r.finished);
  EXPECT_LT(r.steps, 1000u + 40u);
}

// ---------------------------------------------------------------------------
// `howmuch` lists (lower_list)
// ---------------------------------------------------------------------------

TEST(LowerList, ConstantListsMatchTheInterpreter) {
  struct Case {
    const char* src;
    std::vector<std::string> items;
  };
  const Case cases[] = {
      {"{\"big_first\"}", {"big_first"}},
      {"{\"half\",\"small\",\"big\",\"big_small\"}",
       {"half", "small", "big", "big_small"}},
      {"{'half'; \"half\",}", {"half", "half"}},
      {"{}", {}},
  };
  for (const Case& c : cases) {
    const CompiledChunk cc = compile_expr(c.src, "howmuch");
    const std::optional<ListProgram> p = lower_list(cc, 0);
    ASSERT_TRUE(p.has_value()) << c.src;
    EXPECT_EQ(p->items, c.items) << c.src;
    Interp interp;
    const RunResult r = interp.run(cc);
    ASSERT_TRUE(r.ok && r.first().is_table()) << c.src;
    EXPECT_EQ(p->steps, interp.steps_used()) << c.src;
    const TablePtr t = r.first().table();
    ASSERT_EQ(t->length(), static_cast<double>(c.items.size())) << c.src;
    EXPECT_EQ(t->size(), c.items.size()) << c.src;
    for (std::size_t k = 0; k < c.items.size(); ++k)
      EXPECT_EQ(t->get_num(static_cast<double>(k + 1)).str(), c.items[k]);
  }
}

TEST(LowerList, DeclinesAnythingButStringLiterals) {
  const char* exprs[] = {
      "{\"a\", 1}",      "{x = \"a\"}",       "{[\"a\"] = \"b\"}",
      "{\"a\", nil}",    "\"a\"",             "{\"a\" .. \"b\"}",
      "{tostring(1)}",   "{{\"a\"}}",         "{\"a\", whoami}",
      "{\"a\", true}",   "({\"a\"})[1]",      "nil",
  };
  for (const char* e : exprs) {
    const CompiledChunk cc = compile_expr(e, "howmuch");
    ASSERT_TRUE(cc.ok()) << e << ": " << cc.error;
    EXPECT_FALSE(lower_list(cc, 0).has_value()) << e;
  }
  EXPECT_FALSE(lower_list(compile("x = 1 return {\"a\"}"), 0).has_value());
}

TEST(LowerList, StepCountAboveTheBudget) {
  // The return, the constructor and its one item.
  const CompiledChunk cc = compile_expr("{\"big_first\"}", "howmuch");
  EXPECT_FALSE(lower_list(cc, 2).has_value());
  EXPECT_TRUE(lower_list(cc, 3).has_value());
  Interp interp;
  interp.set_budget(2);
  EXPECT_FALSE(interp.run(cc).ok);
  interp.set_budget(3);
  EXPECT_TRUE(interp.run(cc).ok);
}

}  // namespace
}  // namespace mantle::lua

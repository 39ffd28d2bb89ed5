#include "core/mantle.hpp"

#include <gtest/gtest.h>

#include "balancers/builtin.hpp"

namespace mantle::core {
namespace {

using cluster::ClusterView;
using cluster::HeartbeatPayload;
using cluster::PopSnapshot;

ClusterView make_view(int whoami, std::vector<double> loads,
                      std::vector<double> cpu = {}) {
  ClusterView v;
  v.whoami = whoami;
  v.mdss.resize(loads.size());
  v.loads.resize(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    v.mdss[i].rank = static_cast<int>(i);
    v.mdss[i].all_metaload = loads[i];
    v.mdss[i].auth_metaload = loads[i];
    v.mdss[i].cpu_pct = i < cpu.size() ? cpu[i] : 0.0;
    v.loads[i] = loads[i];
    v.total_load += loads[i];
  }
  return v;
}

TEST(Mantle, MetaloadExpression) {
  MantleBalancer b(MantlePolicy{"IWR", "", "", "", ""});
  PopSnapshot p;
  p.iwr = 12.5;
  p.ird = 100.0;  // ignored by this policy
  EXPECT_DOUBLE_EQ(b.metaload(p), 12.5);
  EXPECT_EQ(b.hook_errors(), 0u);
}

TEST(Mantle, MetaloadChunkAssignmentForm) {
  // "mds_bal_metaload IWR" is an expression, but chunk form works too.
  MantleBalancer b(MantlePolicy{"metaload = IRD + 2*IWR", "", "", "", ""});
  PopSnapshot p;
  p.ird = 3.0;
  p.iwr = 4.0;
  EXPECT_DOUBLE_EQ(b.metaload(p), 11.0);
}

TEST(Mantle, MetaloadTable1Formula) {
  MantleBalancer b(scripts::original());
  const PopSnapshot p{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(b.metaload(p), 1 + 4 + 3 + 8 + 20.0);
}

TEST(Mantle, MdsloadSeesMdssAtIndexI) {
  MantleBalancer b(scripts::original());
  HeartbeatPayload hb;
  hb.rank = 2;  // arbitrary: the hook must find MDSs[i] regardless of rank
  hb.auth_metaload = 100.0;
  hb.all_metaload = 150.0;
  hb.req_rate = 42.0;
  hb.queue_len = 3.0;
  EXPECT_DOUBLE_EQ(b.mdsload(hb), 0.8 * 100 + 0.2 * 150 + 42 + 30);
  EXPECT_EQ(b.hook_errors(), 0u);
}

TEST(Mantle, WhenThenFragmentForm) {
  // Table 1's when is literally "if my load > total/#MDSs then".
  MantleBalancer b(scripts::original());
  EXPECT_TRUE(b.when(make_view(0, {90, 10, 20})));
  EXPECT_FALSE(b.when(make_view(1, {90, 10, 20})));
  EXPECT_EQ(b.hook_errors(), 0u);
}

TEST(Mantle, WhenGoConventionForm) {
  MantlePolicy p;
  p.when = "go = 0 if MDSs[whoami]['load'] > 50 then go = 1 end";
  MantleBalancer b(p);
  EXPECT_TRUE(b.when(make_view(0, {60, 0})));
  EXPECT_FALSE(b.when(make_view(0, {40, 0})));
}

TEST(Mantle, WhenReturnConventionForm) {
  MantlePolicy p;
  p.when = "return MDSs[whoami]['load'] > total/2";
  MantleBalancer b(p);
  EXPECT_TRUE(b.when(make_view(0, {60, 10})));
  EXPECT_FALSE(b.when(make_view(1, {60, 10})));
}

TEST(Mantle, CombinedWhenWhereFillsTargets) {
  // Listing 1 style: the when chunk fills targets itself.
  MantleBalancer b(scripts::greedy_spill());
  const auto v = make_view(0, {100, 0});
  ASSERT_TRUE(b.when(v));
  const auto t = b.where(v);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t[1], 50.0);
  EXPECT_EQ(b.hook_errors(), 0u);
}

TEST(Mantle, SeparateWhereHook) {
  MantleBalancer b(scripts::original());
  const auto v = make_view(0, {90, 10, 20});
  ASSERT_TRUE(b.when(v));
  const auto t = b.where(v);
  EXPECT_NEAR(t[1], 50.0 * 30 / 50, 1e-9);
  EXPECT_NEAR(t[2], 50.0 * 20 / 50, 1e-9);
}

TEST(Mantle, HowmuchParsesSelectorList) {
  MantleBalancer b(scripts::adaptable());
  const auto names = b.howmuch();
  EXPECT_EQ(names, (std::vector<std::string>{"half", "small", "big", "big_small"}));
}

TEST(Mantle, HowmuchDefaultsWhenEmpty) {
  MantleBalancer b(MantlePolicy{});
  EXPECT_EQ(b.howmuch(), std::vector<std::string>{"big_first"});
}

TEST(Mantle, StateSurvivesAcrossTicks) {
  // Fill & Spill's WRstate/RDstate hold counter (Listing 3).
  MantleBalancer b(scripts::fill_and_spill(48.0, 0.25));
  const auto hot = make_view(0, {100, 0}, {80, 5});
  EXPECT_FALSE(b.when(hot));   // streak 0 -> 1: first hot tick arms
  EXPECT_FALSE(b.when(hot));   // streak 1 -> 2
  EXPECT_TRUE(b.when(hot));    // third consecutive hot tick fires
  EXPECT_FALSE(b.when(hot));   // streak reset: holds again
  EXPECT_FALSE(b.when(hot));
  EXPECT_TRUE(b.when(hot));    // fires again
  const auto t = b.where(hot);
  EXPECT_DOUBLE_EQ(t[1], 25.0);
  EXPECT_EQ(b.hook_errors(), 0u);
}

TEST(Mantle, BrokenHookIsContainedNotFatal) {
  MantlePolicy p;
  p.metaload = "IWR +";  // would not parse as expression or chunk...
  // validate rejects it, so build with a bad-at-runtime one instead:
  p.metaload = "nonexistent_table['x']";
  MantleBalancer b(p);
  EXPECT_DOUBLE_EQ(b.metaload(PopSnapshot{}), 0.0);
  EXPECT_GT(b.hook_errors(), 0u);
  EXPECT_FALSE(b.last_error().empty());
}

TEST(Mantle, WhereClampsNegativeAndNonFiniteTargets) {
  // A buggy policy writing NaN/inf/negative amounts must degrade to "send
  // nothing to that rank", counted via hook_errors, never crash or export
  // garbage into the migration machinery.
  MantlePolicy p;
  p.when = "go = 1";
  p.where = "targets[1] = 0/0 targets[2] = -50 targets[3] = 7";
  MantleBalancer b(p);
  const auto v = make_view(0, {90, 10, 20});
  ASSERT_TRUE(b.when(v));
  const auto t = b.where(v);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t[0], 0.0) << "NaN clamps to 0";
  EXPECT_DOUBLE_EQ(t[1], 0.0) << "negative clamps to 0";
  EXPECT_DOUBLE_EQ(t[2], 7.0) << "sane target untouched";
  EXPECT_GE(b.hook_errors(), 2u);
  EXPECT_FALSE(b.last_error().empty());
}

TEST(Mantle, WhereIgnoresOutOfRangeAndStringTargets) {
  MantlePolicy p;
  p.when = "go = 1";
  // Index 9 is beyond the 3-rank cluster; 0 is below the 1-based range;
  // a string key never names a rank. All are dropped, all are counted.
  p.where = "targets[9] = 5 targets[0] = 5 targets['mds1'] = 5 targets[2] = 3";
  MantleBalancer b(p);
  const auto v = make_view(0, {90, 10, 20});
  ASSERT_TRUE(b.when(v));
  const auto t = b.where(v);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[1], 3.0) << "in-range target survives the bad ones";
  EXPECT_DOUBLE_EQ(t[2], 0.0);
  EXPECT_GE(b.hook_errors(), 3u);
}

TEST(Mantle, WhenFilledTargetsAreSanitizedToo) {
  // Listings 1-2 style: the when chunk fills targets itself. The same
  // sanitization applies before the cached targets reach the cluster.
  MantlePolicy p;
  p.when = "targets[2] = -1 targets[8] = 100 go = 1";
  MantleBalancer b(p);
  const auto v = make_view(0, {90, 10});
  // All candidate targets were bad, so when() reports nothing to migrate
  // unless the hook said go explicitly — it did, so when() is true but
  // where() hands back all-zero targets.
  ASSERT_TRUE(b.when(v));
  const auto t = b.where(v);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[1], 0.0);
  EXPECT_GE(b.hook_errors(), 2u);
}

TEST(Mantle, InfiniteLoopHookIsKilledByBudget) {
  MantlePolicy p;
  p.when = "while 1 do end";
  MantleBalancer::Options opt;
  opt.budget = 10000;
  MantleBalancer b(p, opt);
  EXPECT_FALSE(b.when(make_view(0, {10, 0})));
  EXPECT_GT(b.hook_errors(), 0u);
  EXPECT_NE(b.last_error().find("budget"), std::string::npos);
}

TEST(Mantle, InjectReplacesHookAfterValidation) {
  MantleBalancer b(scripts::greedy_spill());
  EXPECT_EQ(b.inject("mds_bal_metaload", "IRD + IWR"), "");
  PopSnapshot p;
  p.ird = 1.0;
  p.iwr = 2.0;
  EXPECT_DOUBLE_EQ(b.metaload(p), 3.0);
  // Bad injections are rejected and leave the policy untouched.
  EXPECT_NE(b.inject("mds_bal_metaload", "IWR +"), "");
  EXPECT_DOUBLE_EQ(b.metaload(p), 3.0);
  EXPECT_NE(b.inject("mds_bal_bogus_key", "1"), "");
}

TEST(MantleValidate, AcceptsAllPaperPolicies) {
  EXPECT_EQ(validate_policy(scripts::original()), "");
  EXPECT_EQ(validate_policy(scripts::greedy_spill()), "");
  EXPECT_EQ(validate_policy(scripts::greedy_spill_even()), "");
  EXPECT_EQ(validate_policy(scripts::fill_and_spill()), "");
  EXPECT_EQ(validate_policy(scripts::adaptable()), "");
}

TEST(MantleValidate, AcceptsAWhenEndingInAnIdentifierThatEndsInThen) {
  // `hot_then` is one identifier, not a dangling `then`: nothing may be
  // appended to the chunk.
  MantlePolicy p;
  p.when = "hot_then = MDSs[whoami][\"load\"] > total/#MDSs\nreturn hot_then";
  EXPECT_FALSE(is_then_fragment(p.when));
  EXPECT_EQ(validate_policy(p), "");
  MantleBalancer b(p);
  EXPECT_TRUE(b.when(make_view(0, {90, 10, 20})));
  EXPECT_FALSE(b.when(make_view(1, {90, 10, 20})));
  EXPECT_EQ(b.hook_errors(), 0u);
}

TEST(MantleValidate, ThenFragmentMayEndInAComment) {
  // The completion goes on a line of its own, past the comment.
  EXPECT_TRUE(is_then_fragment("if total > 1 then -- spill"));
  MantlePolicy p;
  p.when = "if MDSs[whoami][\"load\"] > total/#MDSs then -- overloaded";
  EXPECT_EQ(validate_policy(p), "");
  MantleBalancer b(p);
  EXPECT_TRUE(b.when(make_view(0, {90, 10, 20})));
  EXPECT_FALSE(is_then_fragment("x = 1 -- then"));
  EXPECT_FALSE(is_then_fragment("then_"));
  EXPECT_TRUE(is_then_fragment("then"));
}

TEST(MantleValidate, RejectsSyntaxErrors) {
  MantlePolicy p;
  p.when = "if then";
  EXPECT_NE(validate_policy(p), "");
}

TEST(MantleValidate, RejectsInfiniteLoops) {
  // The paper's motivating example: "the administrator can inject bad
  // policies (e.g. while 1) that brings the whole system down".
  MantlePolicy p;
  p.when = "while 1 do end";
  const std::string err = validate_policy(p, 100000);
  EXPECT_NE(err.find("budget"), std::string::npos) << err;
}

TEST(MantleValidate, RejectsRuntimeFaults) {
  MantlePolicy p;
  p.when = "x = MDSs[whoami]['load'] + {}";  // arithmetic on a table
  EXPECT_NE(validate_policy(p), "");
}

// ===========================================================================
// Differential tests: each paper policy expressed in Lua must decide
// exactly as its native C++ twin across a grid of cluster states.
// ===========================================================================

class Differential : public ::testing::TestWithParam<int> {};

/// The effective decision of a balancer on a view: did it choose to
/// migrate (when() passed AND some target got load), and where. `when()`
/// returning true with all-zero targets is a no-op in the mechanism, so
/// equivalence is judged on the net effect.
bool decides(cluster::Balancer& b, const ClusterView& v,
             std::vector<double>* targets) {
  if (!b.when(v)) return false;
  *targets = b.where(v);
  for (const double x : *targets)
    if (x > 0.0) return true;
  return false;
}

std::vector<ClusterView> state_grid(int n) {
  std::vector<std::vector<double>> load_sets = {
      std::vector<double>(static_cast<std::size_t>(n), 0.0),
      {},  // filled below
  };
  load_sets.pop_back();
  // A few characteristic load shapes.
  std::vector<std::vector<double>> shapes;
  std::vector<double> one(static_cast<std::size_t>(n), 0.0);
  one[0] = 100.0;
  shapes.push_back(one);
  std::vector<double> even(static_cast<std::size_t>(n), 25.0);
  shapes.push_back(even);
  std::vector<double> skew;
  for (int i = 0; i < n; ++i) skew.push_back(100.0 / (1 << i));
  shapes.push_back(skew);
  std::vector<double> rev;
  for (int i = 0; i < n; ++i) rev.push_back(static_cast<double>(i) * 10.0);
  shapes.push_back(rev);
  shapes.push_back(std::vector<double>(static_cast<std::size_t>(n), 0.0));

  std::vector<ClusterView> views;
  for (const auto& s : shapes)
    for (int w = 0; w < n; ++w)
      views.push_back(make_view(w, s, std::vector<double>(s.begin(), s.end())));
  return views;
}

template <typename Native, typename PolicyFn>
void expect_equivalent(int n, PolicyFn make_policy) {
  for (const ClusterView& v : state_grid(n)) {
    Native native;
    MantleBalancer script(make_policy());
    std::vector<double> nt;
    std::vector<double> st;
    const bool nd = decides(native, v, &nt);
    const bool sd = decides(script, v, &st);
    EXPECT_EQ(nd, sd) << "whoami=" << v.whoami << " n=" << n;
    if (nd && sd) {
      ASSERT_EQ(nt.size(), st.size());
      for (std::size_t i = 0; i < nt.size(); ++i)
        EXPECT_NEAR(nt[i], st[i], 1e-9) << "target " << i;
    }
    EXPECT_EQ(script.hook_errors(), 0u) << script.last_error();
  }
}

TEST_P(Differential, GreedySpillMatchesNative) {
  expect_equivalent<balancers::GreedySpillBalancer>(
      GetParam(), [] { return scripts::greedy_spill(); });
}

TEST_P(Differential, GreedySpillEvenMatchesNative) {
  expect_equivalent<balancers::GreedySpillEvenBalancer>(
      GetParam(), [] { return scripts::greedy_spill_even(); });
}

TEST_P(Differential, AdaptableMatchesNative) {
  expect_equivalent<balancers::AdaptableBalancer>(
      GetParam(), [] { return scripts::adaptable(); });
}

TEST_P(Differential, OriginalMatchesNative) {
  expect_equivalent<balancers::OriginalBalancer>(
      GetParam(), [] { return scripts::original(); });
}

TEST_P(Differential, FillSpillMatchesNativeOverTime) {
  const int n = GetParam();
  // Stateful policy: drive both through the same tick sequence.
  balancers::FillSpillBalancer native;
  MantleBalancer script(scripts::fill_and_spill());
  std::vector<double> loads(static_cast<std::size_t>(n), 0.0);
  loads[0] = 100.0;
  std::vector<double> hot_cpu(static_cast<std::size_t>(n), 5.0);
  hot_cpu[0] = 80.0;
  std::vector<double> cool_cpu(static_cast<std::size_t>(n), 5.0);
  const bool seq[] = {true, true, true, false, true, true, true, true, true};
  for (const bool hot : seq) {
    const ClusterView v = make_view(0, loads, hot ? hot_cpu : cool_cpu);
    std::vector<double> nt;
    std::vector<double> st;
    const bool nd = decides(native, v, &nt);
    const bool sd = decides(script, v, &st);
    EXPECT_EQ(nd, sd);
    if (nd && sd) {
      for (std::size_t i = 0; i < nt.size(); ++i) EXPECT_NEAR(nt[i], st[i], 1e-9);
    }
  }
  EXPECT_EQ(script.hook_errors(), 0u) << script.last_error();
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, Differential, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace mantle::core

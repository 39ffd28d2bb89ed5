/// Tests for the compile-once policy pipeline in MantleBalancer: each hook
/// is parsed exactly once per injection, re-injection invalidates the
/// cached program (and is counted + traced), and a buggy replacement
/// policy degrades to "no migration" — never to a stale cached decision.

#include "core/mantle.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mantle::core {
namespace {

using cluster::ClusterView;
using cluster::PopSnapshot;

ClusterView make_view(int whoami, std::vector<double> loads) {
  ClusterView v;
  v.whoami = whoami;
  v.mdss.resize(loads.size());
  v.loads.resize(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    v.mdss[i].rank = static_cast<int>(i);
    v.mdss[i].all_metaload = loads[i];
    v.mdss[i].auth_metaload = loads[i];
    v.loads[i] = loads[i];
    v.total_load += loads[i];
  }
  return v;
}

TEST(MantleCache, TenThousandEvalsParseOnce) {
  // The regression the pipeline exists to prevent: the old eval() path
  // re-built "return (<src>)" and re-parsed it on every single call.
  MantleBalancer b(MantlePolicy{"IRD + 2*IWR", "", "", "", ""});
  EXPECT_EQ(b.cache_stats().parses, 1u);
  EXPECT_EQ(b.cache_stats().misses, 1u);
  PopSnapshot p;
  p.ird = 1.0;
  p.iwr = 2.0;
  for (int i = 0; i < 10000; ++i) EXPECT_DOUBLE_EQ(b.metaload(p), 5.0);
  EXPECT_EQ(b.cache_stats().parses, 1u);  // still exactly one parse
  EXPECT_EQ(b.cache_stats().hits, 10000u);
  EXPECT_EQ(b.cache_stats().recompiles, 0u);
  EXPECT_EQ(b.hook_errors(), 0u);
}

TEST(MantleCache, EveryHookOfAFullPolicyCompilesOnce) {
  MantleBalancer b(scripts::original());
  EXPECT_EQ(b.cache_stats().misses, 5u);  // one per non-empty hook
  const auto view = make_view(0, {90, 10, 20});
  for (int i = 0; i < 100; ++i) {
    PopSnapshot p;
    b.metaload(p);
    b.mdsload(view.mdss[1]);
    if (b.when(view)) b.where(view);
    b.howmuch();
  }
  EXPECT_EQ(b.cache_stats().misses, 5u);
  EXPECT_EQ(b.cache_stats().recompiles, 0u);
  EXPECT_EQ(b.hook_errors(), 0u);
}

TEST(MantleCache, ChunkFormCostsOneExtraParse) {
  // A metaload hook that is not a bare expression fails the expression
  // parse once, then compiles as a chunk — two parses total, ever.
  MantleBalancer b(MantlePolicy{"metaload = IRD + IWR", "", "", "", ""});
  EXPECT_EQ(b.cache_stats().parses, 2u);
  PopSnapshot p;
  p.ird = 3.0;
  p.iwr = 4.0;
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(b.metaload(p), 7.0);
  EXPECT_EQ(b.cache_stats().parses, 2u);
}

TEST(MantleCache, ReinjectionInvalidatesAndNextTickUsesNewPolicy) {
  MantleBalancer b(MantlePolicy{"IWR", "", "", "", ""});
  PopSnapshot p;
  p.ird = 100.0;
  p.iwr = 7.0;
  EXPECT_DOUBLE_EQ(b.metaload(p), 7.0);
  EXPECT_EQ(b.cache_stats().recompiles, 0u);

  ASSERT_EQ(b.inject("mds_bal_metaload", "IRD"), "");
  EXPECT_EQ(b.cache_stats().recompiles, 1u);
  // The very next evaluation runs the new program, not the cached old one.
  EXPECT_DOUBLE_EQ(b.metaload(p), 100.0);

  // Re-injecting the identical source is a no-op for the cache.
  ASSERT_EQ(b.inject("mds_bal_metaload", "IRD"), "");
  EXPECT_EQ(b.cache_stats().recompiles, 1u);
}

TEST(MantleCache, RejectedInjectionLeavesCacheAndPolicyUntouched) {
  MantleBalancer b(MantlePolicy{"IWR", "", "", "", ""});
  const auto before = b.cache_stats();
  EXPECT_NE(b.inject("mds_bal_metaload", "while 1 do end"), "");
  EXPECT_EQ(b.cache_stats().recompiles, before.recompiles);
  EXPECT_EQ(b.policy().metaload, "IWR");
  PopSnapshot p;
  p.iwr = 7.0;
  EXPECT_DOUBLE_EQ(b.metaload(p), 7.0);
}

TEST(MantleCache, BuggyReplacementDegradesToNoMigrationNotStaleDecision) {
  // Start with a when policy that reliably says "migrate".
  MantlePolicy policy;
  policy.mdsload = "MDSs[i][\"all\"]";
  policy.when = "go = 1 targets[2] = MDSs[whoami][\"load\"] / 2";
  MantleBalancer b(policy);
  auto small = make_view(0, {100, 0, 0});
  ASSERT_TRUE(b.when(small));

  // Replace it with a policy that is fine on the 3-rank validation probe
  // but blows up on larger clusters (whoami 5 calls an undefined global).
  const char* buggy = R"(
    if whoami == 5 then boom() end
    go = 1
    targets[2] = MDSs[whoami]["load"] / 2
  )";
  ASSERT_EQ(b.inject("mds_bal_when", buggy), "");

  // On a small view the new policy still works...
  small = make_view(0, {100, 0, 0});
  EXPECT_TRUE(b.when(small));

  // ...and on the view that triggers the bug the balancer degrades to "no
  // migration" and counts the error — it must NOT replay the old cached
  // program or the previous tick's decision.
  const std::uint64_t errs = b.hook_errors();
  auto big = make_view(4, {0, 0, 0, 0, 100});
  EXPECT_FALSE(b.when(big));
  EXPECT_GT(b.hook_errors(), errs);
  // where() after a failed when() ships nothing.
  for (const double t : b.where(big)) EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(MantleCache, CountersExportToRegistryAndRecompileIsTraced) {
  obs::MetricsRegistry metrics;
  obs::TraceSink trace;
  MantleBalancer b(scripts::original());
  // Construction-time compiles predate the attach; the registry counters
  // must be reconciled, not lost.
  b.attach_observability(&metrics, &trace);
  EXPECT_EQ(metrics.counter("mantle_policy_cache_misses_total").value(), 5u);
  EXPECT_EQ(metrics.counter("mantle_policy_cache_hits_total").value(), 0u);

  PopSnapshot p;
  b.metaload(p);
  EXPECT_EQ(metrics.counter("mantle_policy_cache_hits_total").value(), 1u);

  ASSERT_EQ(b.inject("mds_bal_metaload", "IRD + IWR"), "");
  EXPECT_EQ(metrics.counter("mantle_policy_cache_recompiles_total").value(),
            1u);
  bool saw_recompile = false;
  for (const auto& ev : trace.events()) {
    if (ev.kind == obs::EventKind::PolicyRecompile) {
      saw_recompile = true;
      EXPECT_EQ(ev.detail, "metaload");
    }
  }
  EXPECT_TRUE(saw_recompile);
}

}  // namespace
}  // namespace mantle::core

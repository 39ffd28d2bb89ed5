#include "safety/fuzz.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "balancers/builtin.hpp"
#include "cluster/balancer.hpp"

namespace mantle::safety {
namespace {

TEST(FuzzTest, FixedSeedRunsClean) {
  // The acceptance gate: a healthy build survives hostile inputs. The CI
  // job runs the full 10k; here a denser-than-quick slice keeps the test
  // under the ctest timeout while still covering every level many times.
  FuzzConfig cfg;
  cfg.seed = 1;
  cfg.iters = 2400;
  const FuzzResult r = run_fuzz(cfg);
  EXPECT_EQ(r.iterations, 2400u);
  EXPECT_GT(r.checks, r.iterations);  // several invariants per case
  EXPECT_TRUE(r.ok()) << r.corpus();
}

TEST(FuzzTest, SameSeedSameCorpus) {
  // Determinism is what makes a fuzz failure actionable: the reported
  // corpus must be byte-identical across runs of the same config.
  FuzzConfig cfg;
  cfg.seed = 42;
  cfg.iters = 900;
  const FuzzResult a = run_fuzz(cfg);
  const FuzzResult b = run_fuzz(cfg);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.corpus(), b.corpus());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(FuzzTest, DifferentSeedsDiverge) {
  FuzzConfig a;
  a.seed = 2;
  a.iters = 300;
  FuzzConfig b = a;
  b.seed = 3;
  // Same case count, different cases: the checks tally is input-shaped
  // (e.g. how many ranks each view carries), so a seed change moves it.
  EXPECT_NE(run_fuzz(a).checks, run_fuzz(b).checks);
}

// Regression: fuzzing found (seed 1, level "view") that summing many
// near-DBL_MAX loads overflows total_load to +inf, turning the per-rank
// deficit into an infinite export goal. where() must fail toward "export
// nothing" on a non-finite mean instead.
TEST(FuzzTest, RegressionOverflowedTotalLoadYieldsFiniteTargets) {
  cluster::ClusterView view;
  const std::size_t n = 111;
  view.whoami = 0;
  view.mdss.resize(n);
  view.loads.assign(n, 1e307);
  view.loads[0] = 1e308;  // the "overloaded" self
  view.total_load = 0.0;
  for (double l : view.loads) view.total_load += l;  // -> +inf
  ASSERT_TRUE(std::isinf(view.total_load));

  balancers::AdaptableBalancer adaptable;
  for (const double t : adaptable.where(view)) {
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GE(t, 0.0);
  }
  balancers::HashBalancer hash;
  for (const double t : hash.where(view)) {
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GE(t, 0.0);
  }
}

// Regression companion: a NaN mean (NaN load leaking into total_load)
// must also fail toward "export nothing" in the original policy's twin.
TEST(FuzzTest, RegressionNanTotalLoadExportsNothing) {
  cluster::ClusterView view;
  view.whoami = 0;
  view.mdss.resize(3);
  view.loads = {100.0, 0.0, 0.0};
  view.total_load = std::nan("");

  balancers::OriginalBalancer original;
  for (const double t : original.where(view)) EXPECT_EQ(t, 0.0);
}

}  // namespace
}  // namespace mantle::safety

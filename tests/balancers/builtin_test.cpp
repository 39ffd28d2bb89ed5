#include "balancers/builtin.hpp"

#include <gtest/gtest.h>

namespace mantle::balancers {
namespace {

using mantle::mds::kNoRank;

/// A view with the given per-rank loads (mdsload already applied).
ClusterView make_view(int whoami, std::vector<double> all_loads,
                      std::vector<double> cpu = {}) {
  ClusterView v;
  v.whoami = whoami;
  v.mdss.resize(all_loads.size());
  v.loads.resize(all_loads.size());
  for (std::size_t i = 0; i < all_loads.size(); ++i) {
    v.mdss[i].rank = static_cast<int>(i);
    v.mdss[i].all_metaload = all_loads[i];
    v.mdss[i].auth_metaload = all_loads[i];
    v.mdss[i].cpu_pct = i < cpu.size() ? cpu[i] : 0.0;
    v.loads[i] = all_loads[i];  // balancers under test use "all" as load
    v.total_load += all_loads[i];
  }
  return v;
}

// ---------------------------------------------------------------------------
// OriginalBalancer
// ---------------------------------------------------------------------------

TEST(Original, MetaloadMatchesTable1) {
  OriginalBalancer b;
  const PopSnapshot p{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(b.metaload(p), 1 + 2 * 2 + 3 + 2 * 4 + 4 * 5.0);
}

TEST(Original, MdsloadMatchesTable1) {
  OriginalBalancer b;
  HeartbeatPayload hb;
  hb.auth_metaload = 100.0;
  hb.all_metaload = 150.0;
  hb.req_rate = 42.0;
  hb.queue_len = 3.0;
  EXPECT_DOUBLE_EQ(b.mdsload(hb), 0.8 * 100 + 0.2 * 150 + 42 + 30);
}

TEST(Original, WhenTriggersAboveAverage) {
  OriginalBalancer b;
  EXPECT_TRUE(b.when(make_view(0, {90, 10, 20})));
  EXPECT_FALSE(b.when(make_view(1, {90, 10, 20})));
  EXPECT_FALSE(b.when(make_view(0, {40, 40, 40})));  // exactly average
}

TEST(Original, WhereSplitsExcessByDeficit) {
  OriginalBalancer b;
  // avg = 40; my excess = 50; deficits: mds1 = 30, mds2 = 20.
  const auto t = b.where(make_view(0, {90, 10, 20}));
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_NEAR(t[1], 50.0 * 30 / 50, 1e-9);
  EXPECT_NEAR(t[2], 50.0 * 20 / 50, 1e-9);
}

TEST(Original, WhereNothingWhenUnderloaded) {
  OriginalBalancer b;
  const auto t = b.where(make_view(1, {90, 10, 20}));
  for (const double x : t) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Original, WhenThrashesEpsilonAboveMean) {
  // Characterisation of the thrash the paper blames on the original
  // balancer (Section 6 / Figure 10 discussion): *any* excess above the
  // mean triggers when(), even one far too small to ever pay for a
  // migration, so a near-balanced cluster keeps shuffling tiny slivers.
  OriginalBalancer b;
  const double eps = 1e-9;
  const auto v = make_view(0, {100.0 + eps, 100.0, 100.0});
  EXPECT_TRUE(b.when(v));
  const auto t = b.where(v);
  ASSERT_EQ(t.size(), 3u);
  const double shipped = t[1] + t[2];
  EXPECT_GT(shipped, 0.0);      // it really does ask to export...
  EXPECT_LT(shipped, 1e-8);     // ...a negligible sliver, every tick
  // And the mirror image: exactly at the mean it stays quiet.
  EXPECT_FALSE(b.when(make_view(0, {100, 100, 100})));
}

// ---------------------------------------------------------------------------
// GreedySpillBalancer (Listing 1)
// ---------------------------------------------------------------------------

TEST(GreedySpill, SpillsToEmptyNeighbour) {
  GreedySpillBalancer b;
  EXPECT_TRUE(b.when(make_view(0, {100, 0})));
  const auto t = b.where(make_view(0, {100, 0}));
  EXPECT_DOUBLE_EQ(t[1], 50.0);
}

TEST(GreedySpill, QuietWhenNeighbourLoaded) {
  GreedySpillBalancer b;
  EXPECT_FALSE(b.when(make_view(0, {100, 60})));
}

TEST(GreedySpill, QuietWhenIdle) {
  GreedySpillBalancer b;
  EXPECT_FALSE(b.when(make_view(0, {0.001, 0})));
}

TEST(GreedySpill, LastRankHasNoNeighbour) {
  GreedySpillBalancer b;
  EXPECT_FALSE(b.when(make_view(1, {0, 100})));
}

TEST(GreedySpill, ChainsAcrossCluster) {
  // Spill runs along the chain: each spills to its successor, giving the
  // uneven 1/2, 1/4, 1/8, 1/8 split of Figure 7 (top).
  GreedySpillBalancer b;
  EXPECT_TRUE(b.when(make_view(0, {100, 0, 0, 0})));
  EXPECT_TRUE(b.when(make_view(1, {50, 50, 0, 0})));
  EXPECT_TRUE(b.when(make_view(2, {50, 25, 25, 0})));
  EXPECT_FALSE(b.when(make_view(3, {50, 25, 12.5, 12.5})));
}

// ---------------------------------------------------------------------------
// GreedySpillEvenBalancer (Listing 2)
// ---------------------------------------------------------------------------

TEST(GreedySpillEven, BisectTargets) {
  // 1-based formula t = (N - w + 1)/2 + w.
  EXPECT_EQ(GreedySpillEvenBalancer::bisect_target(0, 4), 2);   // w1=1 -> t=3
  EXPECT_EQ(GreedySpillEvenBalancer::bisect_target(2, 4), 3);   // w1=3 -> t=4
  EXPECT_EQ(GreedySpillEvenBalancer::bisect_target(1, 4), kNoRank);  // 3.5
  EXPECT_EQ(GreedySpillEvenBalancer::bisect_target(3, 4), kNoRank);  // 4.5
  EXPECT_EQ(GreedySpillEvenBalancer::bisect_target(0, 2), 1);   // w1=1 -> t=2
}

TEST(GreedySpillEven, BisectTargetRank0AllSizes) {
  // From rank 0 the bisection lands on rank n/2 for even n and is
  // undefined (fractional 1-based index) for odd n — including the
  // degenerate single-MDS cluster.
  const auto t = [](int n) {
    return GreedySpillEvenBalancer::bisect_target(0, n);
  };
  EXPECT_EQ(t(1), kNoRank);
  EXPECT_EQ(t(2), 1);
  EXPECT_EQ(t(3), kNoRank);
  EXPECT_EQ(t(4), 2);
  EXPECT_EQ(t(5), kNoRank);
  EXPECT_EQ(t(6), 3);
  EXPECT_EQ(t(7), kNoRank);
  EXPECT_EQ(t(8), 4);
  EXPECT_EQ(t(9), kNoRank);
  EXPECT_EQ(t(10), 5);
}

TEST(GreedySpillEven, BisectTargetMidRanks) {
  // Spot checks off rank 0: t1 = (n - w1 + 1)/2 + w1 when integral.
  EXPECT_EQ(GreedySpillEvenBalancer::bisect_target(2, 8), 5);   // t1 = 6
  EXPECT_EQ(GreedySpillEvenBalancer::bisect_target(4, 8), 6);   // t1 = 7
  EXPECT_EQ(GreedySpillEvenBalancer::bisect_target(6, 8), 7);   // t1 = 8
  EXPECT_EQ(GreedySpillEvenBalancer::bisect_target(7, 8), kNoRank);  // 8.5
  EXPECT_EQ(GreedySpillEvenBalancer::bisect_target(4, 10), 7);  // t1 = 8
  EXPECT_EQ(GreedySpillEvenBalancer::bisect_target(5, 10), kNoRank);  // 8.5
}

TEST(GreedySpillEven, ProducesEvenSplitIn3Rounds) {
  // Round 1: only mds0 loaded -> ships half to mds2.
  GreedySpillEvenBalancer b0;
  ASSERT_TRUE(b0.when(make_view(0, {100, 0, 0, 0})));
  EXPECT_DOUBLE_EQ(b0.where(make_view(0, {100, 0, 0, 0}))[2], 50.0);

  // Round 2: mds0 (50) walks back from loaded mds2 to empty mds1;
  //          mds2 (50) ships half to mds3.
  ASSERT_TRUE(b0.when(make_view(0, {50, 0, 50, 0})));
  EXPECT_DOUBLE_EQ(b0.where(make_view(0, {50, 0, 50, 0}))[1], 25.0);
  GreedySpillEvenBalancer b2;
  ASSERT_TRUE(b2.when(make_view(2, {50, 0, 50, 0})));
  EXPECT_DOUBLE_EQ(b2.where(make_view(2, {50, 0, 50, 0}))[3], 25.0);

  // Round 3: 25 everywhere -> nobody moves.
  EXPECT_FALSE(b0.when(make_view(0, {25, 25, 25, 25})));
  EXPECT_FALSE(b2.when(make_view(2, {25, 25, 25, 25})));
}

// ---------------------------------------------------------------------------
// FillSpillBalancer (Listing 3)
// ---------------------------------------------------------------------------

TEST(FillSpill, HoldsForConsecutiveOverloadedTicks) {
  FillSpillBalancer b;  // hold_iterations = 2
  const auto hot = make_view(0, {100, 0}, {80, 5});
  // The hold starts armed: spilling begins only on the third consecutive
  // overloaded tick, then the hold re-arms.
  EXPECT_FALSE(b.when(hot));  // wait 2 -> 1
  EXPECT_FALSE(b.when(hot));  // wait 1 -> 0
  EXPECT_TRUE(b.when(hot));   // fires, re-arms
  EXPECT_FALSE(b.when(hot));
  EXPECT_FALSE(b.when(hot));
  EXPECT_TRUE(b.when(hot));   // fires again
}

TEST(FillSpill, CoolCpuResetsHold) {
  FillSpillBalancer b;
  const auto hot = make_view(0, {100, 0}, {80, 5});
  const auto cool = make_view(0, {100, 0}, {20, 5});
  EXPECT_FALSE(b.when(hot));
  EXPECT_FALSE(b.when(cool));  // resets wait
  EXPECT_FALSE(b.when(hot));
  EXPECT_FALSE(b.when(hot));
  EXPECT_TRUE(b.when(hot));
}

// Regression: the hold counter used to start disarmed, so the *first*
// overloaded tick spilled immediately — a single hot sample after any
// cool spell triggered a migration, defeating the "consecutive
// confirmations" the policy exists to require.
TEST(FillSpill, InterruptedStreakMustRearmFully) {
  FillSpillBalancer b;
  const auto hot = make_view(0, {100, 0}, {80, 5});
  const auto cool = make_view(0, {100, 0}, {20, 5});
  EXPECT_FALSE(b.when(hot));
  EXPECT_FALSE(b.when(hot));   // one tick away from firing
  EXPECT_FALSE(b.when(cool));  // streak broken
  EXPECT_FALSE(b.when(hot));   // must NOT fire: the hold re-armed in full
  EXPECT_FALSE(b.when(hot));
  EXPECT_TRUE(b.when(hot));
}

TEST(FillSpill, FreshBalancerStartsArmed) {
  FillSpillBalancer b;
  EXPECT_EQ(b.state_wait(), FillSpillBalancer::Options{}.hold_iterations);
  FillSpillBalancer::Options opt;
  opt.hold_iterations = 5;
  FillSpillBalancer c(opt);
  EXPECT_EQ(c.state_wait(), 5);
}

TEST(FillSpill, SpillsConfiguredFraction) {
  FillSpillBalancer::Options opt;
  opt.spill_fraction = 0.10;
  FillSpillBalancer b(opt);
  const auto v = make_view(0, {200, 0}, {80, 5});
  ASSERT_FALSE(b.when(v));
  ASSERT_FALSE(b.when(v));
  ASSERT_TRUE(b.when(v));
  EXPECT_DOUBLE_EQ(b.where(v)[1], 20.0);
}

TEST(FillSpill, ThresholdRespected) {
  FillSpillBalancer::Options opt;
  opt.cpu_threshold = 90.0;
  FillSpillBalancer b(opt);
  // Never fires below the threshold, even past the hold window.
  for (int i = 0; i < 5; ++i)
    EXPECT_FALSE(b.when(make_view(0, {100, 0}, {85, 5})));
}

// ---------------------------------------------------------------------------
// AdaptableBalancer (Listing 4)
// ---------------------------------------------------------------------------

TEST(Adaptable, OnlyMajorityHolderMigrates) {
  AdaptableBalancer b;
  EXPECT_TRUE(b.when(make_view(0, {80, 10, 10})));
  EXPECT_FALSE(b.when(make_view(1, {80, 10, 10})));
  // 45 < total/2=50: no one migrates even though imbalanced.
  EXPECT_FALSE(b.when(make_view(0, {45, 30, 25})));
}

TEST(Adaptable, WhereFillsEveryDeficit) {
  AdaptableBalancer b;
  const auto t = b.where(make_view(0, {80, 10, 10}));
  // target load = 100/3 ~ 33.3; both others get topped up toward it.
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_NEAR(t[1], 100.0 / 3.0 - 10.0, 0.01);
  EXPECT_NEAR(t[2], 100.0 / 3.0 - 10.0, 0.01);
}

TEST(Adaptable, ConservativeGateDelaysMigration) {
  AdaptableBalancer::Options opt;
  opt.mode = AdaptableBalancer::Mode::kConservative;
  opt.min_offload = 100.0;
  AdaptableBalancer b(opt);
  EXPECT_FALSE(b.when(make_view(0, {80, 10, 10})));   // below the gate
  EXPECT_TRUE(b.when(make_view(0, {200, 10, 10})));   // spike crosses it
}

TEST(Adaptable, TooAggressiveFiresOnAnyImbalance) {
  AdaptableBalancer::Options opt;
  opt.mode = AdaptableBalancer::Mode::kTooAggressive;
  AdaptableBalancer b(opt);
  EXPECT_TRUE(b.when(make_view(0, {45, 30, 25})));
  EXPECT_FALSE(b.when(make_view(2, {45, 30, 25})));
}

// ---------------------------------------------------------------------------
// Degenerate views: every balancer must survive an empty cluster view
// (all peers laggy/dead) and an all-idle one without dividing by zero.
// ---------------------------------------------------------------------------

TEST(Degenerate, EmptyViewNeverMigrates) {
  const ClusterView empty = make_view(0, {});
  OriginalBalancer orig;
  EXPECT_FALSE(orig.when(empty));
  EXPECT_TRUE(orig.where(empty).empty());
  GreedySpillBalancer greedy;
  EXPECT_FALSE(greedy.when(empty));
  EXPECT_TRUE(greedy.where(empty).empty());
  GreedySpillEvenBalancer even;
  EXPECT_FALSE(even.when(empty));
  EXPECT_TRUE(even.where(empty).empty());
  FillSpillBalancer fill;
  EXPECT_FALSE(fill.when(empty));
  EXPECT_TRUE(fill.where(empty).empty());
  AdaptableBalancer adapt;
  EXPECT_FALSE(adapt.when(empty));
  EXPECT_TRUE(adapt.where(empty).empty());
}

// Regression: a view can carry a whoami outside [0, size()) — e.g. the
// local rank's own heartbeat was judged laggy and filtered out, or the
// cluster shrank under the balancer. Indexing view.loads[whoami] was UB;
// every builtin must now treat such a view as "nothing to do".
TEST(Degenerate, OutOfRangeSelfRankIsIgnored) {
  for (const int whoami : {-1, 2, 7}) {
    auto v = make_view(0, {100, 0}, {80, 5});
    v.whoami = whoami;
    OriginalBalancer orig;
    EXPECT_FALSE(orig.when(v)) << "whoami=" << whoami;
    for (const double t : orig.where(v)) EXPECT_DOUBLE_EQ(t, 0.0);
    GreedySpillBalancer greedy;
    EXPECT_FALSE(greedy.when(v)) << "whoami=" << whoami;
    for (const double t : greedy.where(v)) EXPECT_DOUBLE_EQ(t, 0.0);
    GreedySpillEvenBalancer even;
    EXPECT_FALSE(even.when(v)) << "whoami=" << whoami;
    for (const double t : even.where(v)) EXPECT_DOUBLE_EQ(t, 0.0);
    FillSpillBalancer fill;
    EXPECT_FALSE(fill.when(v)) << "whoami=" << whoami;
    for (const double t : fill.where(v)) EXPECT_DOUBLE_EQ(t, 0.0);
    AdaptableBalancer adapt;
    EXPECT_FALSE(adapt.when(v)) << "whoami=" << whoami;
    for (const double t : adapt.where(v)) EXPECT_DOUBLE_EQ(t, 0.0);
  }
}

TEST(Degenerate, AllIdleClusterStaysQuiet) {
  // total_load == 0: nobody is above average, and where() must not turn a
  // zero total deficit into NaN targets.
  const ClusterView idle = make_view(0, {0, 0, 0});
  OriginalBalancer orig;
  EXPECT_FALSE(orig.when(idle));
  for (const double t : orig.where(idle)) EXPECT_DOUBLE_EQ(t, 0.0);
  AdaptableBalancer adapt;
  EXPECT_FALSE(adapt.when(idle));
  for (const double t : adapt.where(idle)) EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Degenerate, SingleRankClusterNeverExports) {
  const ClusterView solo = make_view(0, {1000});
  OriginalBalancer orig;
  EXPECT_FALSE(orig.when(solo));  // alone means exactly average
  for (const double t : orig.where(solo)) EXPECT_DOUBLE_EQ(t, 0.0);
  AdaptableBalancer adapt;
  if (adapt.when(solo)) {
    for (const double t : adapt.where(solo)) EXPECT_DOUBLE_EQ(t, 0.0);
  }
}

}  // namespace
}  // namespace mantle::balancers

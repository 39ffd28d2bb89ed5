#include <gtest/gtest.h>

#include "core/mantle.hpp"

namespace mantle::core {
namespace {

using cluster::ClusterView;

ClusterView hot_view() {
  ClusterView v;
  v.whoami = 0;
  v.mdss.resize(2);
  v.mdss[0].rank = 0;
  v.mdss[0].all_metaload = 100.0;
  v.mdss[0].cpu_pct = 80.0;
  v.mdss[1].rank = 1;
  v.loads = {100.0, 0.0};
  v.total_load = 100.0;
  return v;
}

MantlePolicy counting_policy() {
  // Counts its own invocations through WRstate/RDstate.
  MantlePolicy p;
  p.metaload = "IWR";
  p.mdsload = "MDSs[i]['all']";
  p.when = R"(
    n = RDstate()
    WRstate(n + 1)
    return false
  )";
  return p;
}

TEST(MantleState, DefaultsToZeroAndPersistsInMemory) {
  MantleBalancer b(counting_policy());
  const auto v = hot_view();
  for (int i = 0; i < 5; ++i) b.when(v);
  // Read the counter back via a different hook evaluation.
  MantlePolicy probe = counting_policy();
  probe.when = "return RDstate() >= 5";
  EXPECT_EQ(b.inject("mds_bal_when", probe.when), "");
  EXPECT_TRUE(b.when(v));
  EXPECT_EQ(b.hook_errors(), 0u) << b.last_error();
}

TEST(MantleState, DurableStateSurvivesReconstruction) {
  store::ObjectStore store;
  MantleBalancer::Options opt;
  opt.state_store = &store;
  opt.state_oid = "mantle.state.mds0";

  {
    MantleBalancer b(counting_policy(), opt);
    const auto v = hot_view();
    for (int i = 0; i < 3; ++i) b.when(v);
    EXPECT_EQ(b.hook_errors(), 0u) << b.last_error();
  }
  // "Restart" the MDS: a new balancer recovers the counter from the
  // object store instead of starting from zero.
  MantlePolicy probe = counting_policy();
  probe.when = "return RDstate() == 3";
  MantleBalancer b2(probe, opt);
  EXPECT_TRUE(b2.when(hot_view()));
  EXPECT_EQ(b2.hook_errors(), 0u) << b2.last_error();
}

TEST(MantleState, DurableStateHandlesStringsAndBooleans) {
  store::ObjectStore store;
  MantleBalancer::Options opt;
  opt.state_store = &store;
  opt.state_oid = "state";

  MantlePolicy p;
  p.when = "WRstate('phase-two') return false";
  {
    MantleBalancer b(p, opt);
    b.when(hot_view());
  }
  MantlePolicy probe;
  probe.when = "return RDstate() == 'phase-two'";
  MantleBalancer b2(probe, opt);
  EXPECT_TRUE(b2.when(hot_view()));

  MantlePolicy pb;
  pb.when = "WRstate(true) return false";
  {
    MantleBalancer b(pb, opt);
    b.when(hot_view());
  }
  MantlePolicy probe2;
  probe2.when = "return RDstate() == true";
  MantleBalancer b3(probe2, opt);
  EXPECT_TRUE(b3.when(hot_view()));
}

TEST(MantleState, MissingObjectMeansFreshState) {
  store::ObjectStore store;
  MantleBalancer::Options opt;
  opt.state_store = &store;
  opt.state_oid = "never-written";
  MantlePolicy probe;
  probe.when = "return RDstate() == 0";
  MantleBalancer b(probe, opt);
  EXPECT_TRUE(b.when(hot_view()));
}

TEST(MantleState, FillAndSpillRunsDurable) {
  store::ObjectStore store;
  MantleBalancer::Options opt;
  opt.state_store = &store;
  opt.state_oid = "fs-state";
  MantleBalancer b(scripts::fill_and_spill(48.0, 0.25), opt);
  const auto v = hot_view();
  EXPECT_FALSE(b.when(v));   // first hot tick arms the hold
  EXPECT_FALSE(b.when(v));   // second hot tick still holds
  // The hold counter is in the store now.
  std::string raw;
  ASSERT_TRUE(store.read("fs-state", &raw));
  EXPECT_EQ(raw[0], 'n');
  EXPECT_TRUE(b.when(v));    // third consecutive hot tick fires
  EXPECT_EQ(b.hook_errors(), 0u) << b.last_error();
}

}  // namespace
}  // namespace mantle::core

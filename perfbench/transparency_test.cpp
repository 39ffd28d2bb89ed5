#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runner.hpp"
#include "workloads/create_heavy.hpp"

/// \file transparency_test.cpp
/// The traced run may observe the simulation but never steer it: the five
/// dump documents of a small balancing scenario must be byte-identical
/// with and without the HookTimer wrapper, and with and without the
/// snapshot probe's calls into the MdsCluster walk functions.

namespace mantle::perfbench {
namespace {

struct SmallRun {
  std::vector<std::string> dumps;
  std::size_t migrations = 0;
  std::uint64_t hook_calls = 0;
  std::uint64_t walk_calls = 0;
};

SmallRun run_small(bool wrap, bool walks) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 4;
  cfg.cluster.seed = 7;
  cfg.cluster.split_size = 300;
  cfg.cluster.bal_interval = kSec;
  sim::Scenario s(cfg);
  std::vector<HookTimer*> timers;
  install_policy(s, core::scripts::greedy_spill(), wrap ? &timers : nullptr);
  for (int c = 0; c < 4; ++c)
    s.add_client(
        workloads::make_shared_create_workload(c, "/shared", 2000, 200));
  Probe probe(s, 1, walks);
  s.run();

  SmallRun r;
  for (int i = 0; i < kNumDumps; ++i)
    r.dumps.push_back(serialize_dump(s.cluster(), i));
  r.migrations = s.cluster().migrations().size();
  for (const HookTimer* t : timers)
    for (const HookTimer::HookTime& h : t->times()) r.hook_calls += h.calls;
  const WalkStats& w = probe.walks();
  r.walk_calls = w.subtree_pop_calls + w.entry_count_calls +
                 w.auth_entry_count_calls + w.snapshots;
  return r;
}

void expect_same_dumps(const SmallRun& a, const SmallRun& b) {
  ASSERT_EQ(a.dumps.size(), b.dumps.size());
  for (std::size_t i = 0; i < a.dumps.size(); ++i)
    EXPECT_TRUE(a.dumps[i] == b.dumps[i])
        << dump_name(static_cast<int>(i)) << " differs";
}

TEST(Transparency, HookTimerLeavesDumpsUnchanged) {
  const SmallRun plain = run_small(false, false);
  const SmallRun wrapped = run_small(true, false);
  ASSERT_GT(plain.migrations, 0u) << "the scenario must exercise the policy";
  EXPECT_GT(wrapped.hook_calls, 0u);
  expect_same_dumps(plain, wrapped);
}

TEST(Transparency, WalkProbeLeavesDumpsUnchanged) {
  const SmallRun plain = run_small(false, false);
  const SmallRun probed = run_small(false, true);
  ASSERT_GT(plain.migrations, 0u) << "the scenario must exercise the policy";
  EXPECT_GT(probed.walk_calls, 0u);
  expect_same_dumps(plain, probed);
}

}  // namespace
}  // namespace mantle::perfbench

#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include "balancers/builtin.hpp"
#include "core/mantle.hpp"
#include "workloads/compile.hpp"
#include "workloads/create_heavy.hpp"

namespace mantle::sim {
namespace {

TEST(Scenario, SingleClientSingleMdsCompletes) {
  ScenarioConfig cfg;
  cfg.cluster.num_mds = 1;
  Scenario s(cfg);
  s.add_client(workloads::make_private_create_workload(0, 500, /*think=*/100));
  const Time makespan = s.run();
  EXPECT_GT(makespan, 0u);
  EXPECT_TRUE(s.client(0).done());
  EXPECT_EQ(s.client(0).ops_completed(), 501u);  // mkdir + 500 creates
  EXPECT_EQ(s.client(0).ops_failed(), 0u);
  EXPECT_EQ(s.cluster().total_completed(), 501u);
  EXPECT_GT(s.aggregate_throughput(), 0.0);
  // The namespace holds what was created.
  EXPECT_EQ(s.cluster().ns().subtree_entries(s.cluster().ns().root()), 501u);
}

TEST(Scenario, DeterministicForSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    ScenarioConfig cfg;
    cfg.cluster.num_mds = 2;
    cfg.cluster.seed = seed;
    Scenario s(cfg);
    s.cluster().set_balancer_all(
        [](int) { return std::make_unique<balancers::GreedySpillBalancer>(); });
    s.add_client(workloads::make_private_create_workload(0, 800, 100));
    s.add_client(workloads::make_private_create_workload(1, 800, 100));
    return s.run();
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));  // different seed, different timeline
}

TEST(Scenario, LatenciesAreRecorded) {
  ScenarioConfig cfg;
  cfg.cluster.num_mds = 1;
  Scenario s(cfg);
  s.add_client(workloads::make_private_create_workload(0, 200, 50));
  s.run();
  const auto lat = s.pooled_latencies_ms();
  EXPECT_EQ(lat.count(), 201u);
  EXPECT_GT(lat.mean(), 0.0);
  // One request = 2 network hops + service; well under a millisecond when
  // unloaded.
  EXPECT_LT(lat.percentile(0.5), 5.0);
}

TEST(Scenario, MoreClientsRaiseLatencyUnderSaturation) {
  auto mean_latency = [](int clients) {
    ScenarioConfig cfg;
    cfg.cluster.num_mds = 1;
    Scenario s(cfg);
    for (int c = 0; c < clients; ++c)
      s.add_client(workloads::make_private_create_workload(c, 400, 300));
    s.run();
    return s.pooled_latencies_ms().mean();
  };
  const double lat1 = mean_latency(1);
  const double lat8 = mean_latency(8);
  EXPECT_GT(lat8, lat1 * 1.5) << "queueing should inflate latency";
}

TEST(Scenario, GreedySpillMigratesSharedDirectory) {
  ScenarioConfig cfg;
  cfg.cluster.num_mds = 2;
  cfg.cluster.split_size = 300;       // split early so there is something to ship
  cfg.cluster.bal_interval = kSec;    // balance often in this short test
  Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::GreedySpillBalancer>(); });
  // Enough work that several balancer ticks (1 s apart, with jitter) land
  // mid-run and the importer gets time to serve afterwards.
  for (int c = 0; c < 4; ++c)
    s.add_client(workloads::make_shared_create_workload(c, "/shared", 4000, 100));
  s.run();
  EXPECT_FALSE(s.cluster().migrations().empty());
  // Both MDS nodes ended up serving requests.
  EXPECT_GT(s.cluster().node(0).stats().completed, 0u);
  EXPECT_GT(s.cluster().node(1).stats().completed, 0u);
  EXPECT_GT(s.cluster().total_sessions_flushed(), 0u);
  // All creates landed despite migrations (4 x 4000 + 1 mkdir; the three
  // losing mkdirs count as failed at the clients, not in the namespace).
  EXPECT_EQ(s.cluster().ns().subtree_entries(s.cluster().ns().root()),
            1u + 4u * 4000u);
}

TEST(Scenario, MantleScriptBalancerDrivesMigrationEndToEnd) {
  ScenarioConfig cfg;
  cfg.cluster.num_mds = 2;
  cfg.cluster.split_size = 300;
  cfg.cluster.bal_interval = kSec;
  Scenario s(cfg);
  s.cluster().set_balancer_all([](int) {
    return std::make_unique<core::MantleBalancer>(core::scripts::greedy_spill());
  });
  // Enough work that several balancer ticks (1 s apart) land mid-run.
  for (int c = 0; c < 4; ++c)
    s.add_client(workloads::make_shared_create_workload(c, "/shared", 4000, 100));
  s.run();
  EXPECT_FALSE(s.cluster().migrations().empty());
  auto* mb = dynamic_cast<core::MantleBalancer*>(s.cluster().node(0).balancer());
  ASSERT_NE(mb, nullptr);
  EXPECT_EQ(mb->hook_errors(), 0u) << mb->last_error();
}

TEST(Scenario, CompileWorkloadRunsAllPhases) {
  ScenarioConfig cfg;
  cfg.cluster.num_mds = 1;
  Scenario s(cfg);
  workloads::CompileOptions opt;
  opt.root = "/client0";
  opt.files_per_dir = 10;
  opt.compile_ops = 300;
  opt.read_ops = 100;
  opt.link_rounds = 2;
  s.add_client(std::make_unique<workloads::CompileWorkload>(opt));
  s.run();
  EXPECT_TRUE(s.client(0).done());
  EXPECT_EQ(s.client(0).ops_failed(), 0u);
  // The tree exists: root + 15 top-level dirs.
  const auto res = s.cluster().ns().resolve("/client0/kernel");
  EXPECT_TRUE(res.found);
  // Readdirs from the link phase heated READDIR counters somewhere.
  EXPECT_GT(s.cluster().ns().nested_pop(s.cluster().ns().root(),
                                        mds::MetaOp::READDIR, s.makespan()),
            0.0);
}

// With retries on, every op arms a timeout and its reply cancels it. So
// once the clients are done none of their timeouts is left queued: only
// one balancer tick per rank.
TEST(Scenario, AnsweredOpsLeaveNoTimeoutQueued) {
  ScenarioConfig cfg;
  cfg.cluster.num_mds = 2;
  cfg.retry.timeout = kSec;
  Scenario s(cfg);
  for (int c = 0; c < 3; ++c)
    s.add_client(workloads::make_private_create_workload(c, 200, 100));
  s.run();
  for (const auto& c : s.clients()) {
    EXPECT_TRUE(c->done());
    EXPECT_EQ(c->retries(), 0u);
  }
  EXPECT_EQ(s.engine().pending(), 2u);
}

TEST(Scenario, ProbesFireAtInterval) {
  ScenarioConfig cfg;
  cfg.cluster.num_mds = 1;
  Scenario s(cfg);
  s.add_client(workloads::make_private_create_workload(0, 3000, 200));
  int fired = 0;
  s.add_probe(100 * kMsec, [&](Time) { ++fired; });
  s.run();
  EXPECT_GT(fired, 3);
}

TEST(Scenario, ForwardsHappenWhenClientCacheGoesStale) {
  ScenarioConfig cfg;
  cfg.cluster.num_mds = 2;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 200;
  Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::GreedySpillBalancer>(); });
  for (int c = 0; c < 4; ++c)
    s.add_client(workloads::make_shared_create_workload(c, "/shared", 1500, 50));
  s.run();
  if (!s.cluster().migrations().empty()) {
    // After any migration, some request must have chased the moved frag.
    EXPECT_GT(s.cluster().total_forwards(), 0u);
  }
}

}  // namespace
}  // namespace mantle::sim

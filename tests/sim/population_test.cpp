#include "sim/population.hpp"

#include <gtest/gtest.h>

#include "balancers/builtin.hpp"
#include "fault/fault.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

namespace mantle::sim {
namespace {

PopulationConfig small_pop() {
  PopulationConfig pc;
  pc.modeled_clients = 10'000;
  pc.ops_per_client = 1.0;
  pc.sim_rate = 500.0;
  pc.duration = 2 * kSec;
  pc.tick = 50 * kMsec;
  pc.create_frac = 0.4;
  pc.dirs = {"/popA/d0", "/popA/d1", "/popA/d2"};
  return pc;
}

TEST(ClientPopulation, RunsToCompletionAndScalesWeight) {
  ScenarioConfig cfg;
  cfg.cluster.num_mds = 2;
  cfg.cluster.seed = 7;
  cfg.max_time = 30 * kSec;
  Scenario s(cfg);
  const int id = s.add_population(small_pop());
  s.run();

  ClientPopulation& p = s.population(id);
  EXPECT_TRUE(p.done());
  EXPECT_EQ(p.outstanding(), 0u);
  EXPECT_GT(p.arrivals(), 100u);
  EXPECT_GT(p.sim_ops_completed(), 0u);
  // 10k clients at 1 op/s sampled at 500 sim req/s: each simulated
  // request stands for 20 modeled ops.
  EXPECT_EQ(p.weight(), 20u);
  EXPECT_EQ(p.modeled_ops_completed(), p.sim_ops_completed() * 20u);
  EXPECT_EQ(p.stale_replies(), 0u);  // no faults, no retries, no dupes
  EXPECT_GT(p.latencies_ms().count(), 0u);
  EXPECT_GT(p.latencies_ms().mean(), 0.0);
  const double hit = p.hit_rate_estimate();
  EXPECT_GE(hit, 0.0);
  EXPECT_LE(hit, 1.0);
}

TEST(ClientPopulation, SameSeedRunsAreIdentical) {
  const auto run = [] {
    ScenarioConfig cfg;
    cfg.cluster.num_mds = 4;
    cfg.cluster.seed = 42;
    cfg.cluster.bal_interval = kSec;
    cfg.cluster.split_size = 500;
    cfg.max_time = 30 * kSec;
    Scenario s(cfg);
    s.cluster().set_balancer_all(
        [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
    s.add_client(workloads::make_private_create_workload(0, 40, 100));
    s.add_population(small_pop());
    s.run();
    return s.cluster().metrics().to_json();
  };
  EXPECT_EQ(run(), run());
}

TEST(ClientPopulation, CoexistsWithObjectClients) {
  ScenarioConfig cfg;
  cfg.cluster.num_mds = 2;
  cfg.cluster.seed = 3;
  cfg.max_time = 30 * kSec;
  Scenario s(cfg);
  const int cid = s.add_client(workloads::make_private_create_workload(0, 30, 100));
  const int pid = s.add_population(small_pop());
  ASSERT_NE(cid, pid);
  s.run();

  EXPECT_TRUE(s.client(cid).done());
  EXPECT_TRUE(s.population(pid).done());
  EXPECT_THROW(s.client(pid), std::out_of_range);
  EXPECT_THROW(s.population(cid), std::out_of_range);
  // Pooled results cover both kinds.
  const auto lat = s.pooled_latencies_ms();
  EXPECT_GT(lat.count(), s.client(cid).latencies_ms().retained());
  EXPECT_GT(s.aggregate_throughput(), 0.0);
}

// Migrations leave the population's learned map stale, so some requests
// bounce (hops > 0) and the hit model re-learns — the same forward
// dynamics object clients see, at aggregate scale.
TEST(ClientPopulation, SeesForwardsAcrossMigrations) {
  ScenarioConfig cfg;
  cfg.cluster.num_mds = 4;
  cfg.cluster.seed = 11;
  cfg.cluster.bal_interval = 500 * kMsec;
  cfg.cluster.split_size = 200;
  cfg.max_time = 60 * kSec;
  Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  PopulationConfig pc = small_pop();
  pc.sim_rate = 2000.0;
  pc.duration = 5 * kSec;
  pc.create_frac = 0.6;
  const int pid = s.add_population(pc);
  s.run();

  ClientPopulation& p = s.population(pid);
  EXPECT_TRUE(p.done());
  EXPECT_GT(s.cluster().migrations().size(), 0u);
  EXPECT_GT(p.forwards_seen(), 0u);
}

// A read targets only a name whose create has completed. The flow's
// directory lives on rank 1 while every cold guess goes to rank 0, and
// the learned guesses then split between the two: a create sent to rank
// 0 takes a forward hop, so a read of the same name sent to rank 1 in
// the same tick would overtake it and fail. The runs have no faults, so
// no op may fail.
TEST(ClientPopulation, ReadsOnlyNamesWhoseCreateCompleted) {
  std::uint64_t forwards = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ScenarioConfig cfg;
    cfg.cluster.num_mds = 2;
    cfg.cluster.seed = seed;
    cfg.max_time = 30 * kSec;
    Scenario s(cfg);
    mds::Namespace& ns = s.cluster().ns();
    const mds::DirFragId frag{ns.mkdir(ns.root(), "popA", 0), mds::frag_t()};
    ASSERT_TRUE(s.cluster().export_subtree(frag, 1));
    s.engine().run();  // the migration commits
    ASSERT_EQ(s.cluster().auth_of(frag), 1);

    PopulationConfig pc = small_pop();
    pc.create_frac = 0.2;
    pc.dirs = {"/popA"};
    const ClientPopulation& p = s.population(s.add_population(pc));
    s.run();
    EXPECT_TRUE(p.done());
    forwards += p.forwards_seen();
    completed += p.sim_ops_completed();
    failed += p.sim_ops_failed();
  }
  EXPECT_GT(forwards, 0u);
  EXPECT_GT(completed, 5000u);
  EXPECT_EQ(failed, 0u);
}

// A rank crash mid-window loses the requests it holds and drops those
// sent to it. With a 1 s timeout the population resubmits each one to a
// surviving rank, and every request still resolves exactly once.
TEST(ClientPopulation, RetriesThroughACrash) {
  struct Run {
    bool done = false;
    std::size_t outstanding = 0;
    std::uint64_t retries = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::size_t pending = 0;
    std::string metrics;
  };
  const auto run = [] {
    ScenarioConfig cfg;
    cfg.cluster.num_mds = 3;
    cfg.cluster.seed = 19;
    cfg.cluster.bal_interval = kSec;
    cfg.max_time = 60 * kSec;
    Scenario s(cfg);
    PopulationConfig pc = small_pop();
    pc.duration = 6 * kSec;
    pc.create_frac = 1.0;  // creates only: no read can miss its target
    pc.retry.timeout = kSec;
    const int pid = s.add_population(pc);
    fault::FaultPlan plan;
    plan.crashes.push_back({2 * kSec, 0});
    plan.restarts.push_back({4 * kSec, 0});
    fault::FaultInjector inj(plan);
    inj.arm(s.cluster());
    s.run();

    const ClientPopulation& p = s.population(pid);
    Run r;
    r.done = p.done();
    r.outstanding = p.outstanding();
    r.retries = p.retries();
    r.completed = p.sim_ops_completed();
    r.failed = p.sim_ops_failed();
    r.pending = s.engine().pending();
    r.metrics = s.cluster().metrics().to_json();
    return r;
  };
  const Run a = run();
  EXPECT_TRUE(a.done);
  EXPECT_EQ(a.outstanding, 0u);
  EXPECT_GT(a.retries, 0u);
  EXPECT_GT(a.completed, 1000u);
  EXPECT_EQ(a.failed, 0u);
  // Each timeout was cancelled when its request resolved: all that is
  // left queued is one balancer tick per rank.
  EXPECT_EQ(a.pending, 3u);

  const Run b = run();
  EXPECT_EQ(b.retries, a.retries);
  EXPECT_EQ(b.completed, a.completed);
  EXPECT_EQ(b.metrics, a.metrics);
}

}  // namespace
}  // namespace mantle::sim

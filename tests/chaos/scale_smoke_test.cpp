#include <gtest/gtest.h>

#include <memory>

#include "balancers/builtin.hpp"
#include "chaos/invariant.hpp"
#include "fault/fault.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

/// Scale smoke: the full 512-rank configuration from the fig_scale sweep,
/// shortened, with the chaos invariant checker polled throughout. This is
/// the guard against "it runs fast but the cluster state is garbage" —
/// every dirfrag auth-unique, fragments tiling, heat conserved, at 32x the
/// rank count the rest of the suite exercises.

namespace mantle::chaos {
namespace {

TEST(ScaleSmoke, InvariantsHoldAt512Ranks) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 512;
  cfg.cluster.seed = 20260808;
  cfg.cluster.bal_interval = mantle::kSec;
  cfg.cluster.split_size = 400;
  cfg.max_time = 30 * mantle::kSec;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });

  // A couple of object clients plus mean-field populations, like the
  // fig_scale points: enough concurrent create flow to trigger splits and
  // migrations across many ranks within a short horizon.
  for (int c = 0; c < 2; ++c)
    s.add_client(workloads::make_private_create_workload(c, 60, 50));
  for (int p = 0; p < 4; ++p) {
    sim::PopulationConfig pc;
    pc.modeled_clients = 250'000;
    pc.sim_rate = 1500.0;
    pc.duration = 2 * mantle::kSec;
    pc.tick = 100 * mantle::kMsec;
    pc.create_frac = 0.7;
    for (int d = 0; d < 8; ++d)
      pc.dirs.push_back("/smoke" + std::to_string(p) + "/d" + std::to_string(d));
    s.add_population(pc);
  }

  InvariantChecker chk(s.cluster());
  s.add_probe(mantle::kSec, [&](mantle::Time now) { chk.check_tick(now); });
  s.run();
  chk.check_quiesce(s.engine().now());

  ASSERT_TRUE(chk.ok()) << chk.violations()[0].invariant << ": "
                        << chk.violations()[0].detail;
  EXPECT_GT(chk.checks(), 0u);
  for (int p = 2; p < 6; ++p) EXPECT_TRUE(s.population(p).done());
  // The run must actually have spread work: this smoke is worthless if
  // everything stayed on rank 0.
  EXPECT_GT(s.cluster().migrations().size(), 0u);
}

TEST(ScaleSmoke, ChaosAt512RanksOverTenIntervals) {
  // The same shape under chaos for more than ten balancer intervals: a
  // rank crashes and restarts, and heartbeats are dropped, duplicated and
  // delayed by up to two intervals, so deliveries cross ticks, crashes
  // and the replay.
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 512;
  cfg.cluster.seed = 20261017;
  cfg.cluster.bal_interval = mantle::kSec;
  cfg.cluster.split_size = 400;
  cfg.retry.timeout = 2 * mantle::kSec;  // clients ride out the crash
  cfg.max_time = 40 * mantle::kSec;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  for (int c = 0; c < 2; ++c)
    s.add_client(workloads::make_private_create_workload(c, 60, 50));
  for (int p = 0; p < 4; ++p) {
    sim::PopulationConfig pc;
    pc.modeled_clients = 250'000;
    pc.sim_rate = 100.0;
    pc.duration = 11 * mantle::kSec;
    pc.tick = 100 * mantle::kMsec;
    pc.create_frac = 0.7;
    for (int d = 0; d < 8; ++d)
      pc.dirs.push_back("/chaos" + std::to_string(p) + "/d" + std::to_string(d));
    s.add_population(pc);
  }

  fault::FaultPlan plan;
  plan.crashes.push_back({3 * mantle::kSec, 0});  // the root's first owner
  plan.restarts.push_back({6 * mantle::kSec, 0});
  plan.hb_drop_prob = 0.05;
  plan.hb_duplicate_prob = 0.05;
  plan.hb_delay_prob = 0.10;
  plan.hb_delay_max = 2 * mantle::kSec;
  plan.seed = 0xc4a05;
  fault::FaultInjector faults(plan);
  faults.arm(s.cluster());

  InvariantChecker chk(s.cluster());
  s.add_probe(mantle::kSec, [&](mantle::Time now) { chk.check_tick(now); });
  s.run();
  cluster::MdsCluster& c = s.cluster();
  for (int i = 0; i < 30 && (c.active_migration_count() > 0 ||
                             c.dead_letter_size() > 0 || c.num_up() < 512);
       ++i)
    s.run_extra(mantle::kSec);
  chk.check_quiesce(s.engine().now());

  ASSERT_TRUE(chk.ok()) << chk.violations()[0].invariant << ": "
                        << chk.violations()[0].detail;
  EXPECT_GE(s.engine().now(), 11 * mantle::kSec);
  EXPECT_EQ(faults.counters().crashes, 1u);
  EXPECT_EQ(faults.counters().restarts, 1u);
  EXPECT_GT(faults.counters().hb_dropped, 0u);
  EXPECT_GT(faults.counters().hb_duplicated, 0u);
  EXPECT_GT(faults.counters().hb_delayed, 0u);
  EXPECT_GT(c.migrations().size(), 0u);

  // Per-tick heartbeat summaries leave the default-capacity trace room
  // for every event; per-delivery events filled it many times over.
  EXPECT_EQ(c.config().trace_capacity, cluster::ClusterConfig{}.trace_capacity);
  EXPECT_EQ(c.trace().dropped_events(), 0u);
  // Deliveries are not engine events: more heartbeats landed than the
  // engine dispatched events in all.
  obs::MetricsRegistry& m = c.metrics();
  EXPECT_LT(m.counter("sim_events_dispatched_total").value(),
            m.counter("mds_heartbeats_received_total").value());
}

}  // namespace
}  // namespace mantle::chaos

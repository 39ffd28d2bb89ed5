#include <gtest/gtest.h>

#include "balancers/builtin.hpp"
#include "fault/fault.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

/// The PR's acceptance scenario: kill 1 of 3 MDS ranks in the middle of a
/// create-heavy workload and assert the recovery contract — aborted
/// migrations re-inject their deferred requests, no client op is lost,
/// survivors stop targeting the dead rank, throughput recovers — plus
/// bitwise determinism of the whole fault timeline across two runs.

namespace mantle::fault {
namespace {

using cluster::MigrationRecord;
using cluster::RecoveryEvent;

constexpr int kDeadRank = 1;

struct ScenarioOpts {
  std::uint64_t seed = 1;
  std::size_t files_per_client = 30000;
  Time crash_at = 8 * kSec;
  Time restart_at = 16 * kSec;
};

struct RunResult {
  Time makespan = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::vector<MigrationRecord> migrations;
  std::vector<MigrationRecord> aborted;
  std::vector<RecoveryEvent> recovery;
  FaultCounters counters;
  Time recovered_at = 0;            // dead rank serving again
  double pre_fault_tput = 0.0;      // completed ops/s in [2s, crash)
  double post_recovery_tput = 0.0;  // same-length window after recovery
};

RunResult run_scenario(const ScenarioOpts& o) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 3;
  cfg.cluster.seed = o.seed;
  cfg.cluster.bal_interval = kSec;  // balance often: migrations mid-run
  cfg.cluster.split_size = 300;
  cfg.retry.timeout = 2 * kSec;     // clients survive the dead rank
  cfg.max_time = 10 * kMinute;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  for (int c = 0; c < 6; ++c)
    s.add_client(workloads::make_shared_create_workload(
        c, "/shared", o.files_per_client, /*think=*/200));

  FaultPlan plan;
  plan.seed = o.seed;
  plan.crashes.push_back({o.crash_at, kDeadRank});
  plan.restarts.push_back({o.restart_at, kDeadRank});
  FaultInjector inj(plan);
  inj.arm(s.cluster());

  // Sample completed-op counts to compute windowed throughput.
  std::vector<std::pair<Time, std::uint64_t>> samples;
  s.add_probe(kSec / 2, [&](Time t) {
    samples.emplace_back(t, s.cluster().total_completed());
  });

  RunResult r;
  r.makespan = s.run();
  for (const auto& c : s.clients()) {
    r.completed += c->ops_completed();
    r.failed += c->ops_failed();
    r.retries += c->retries();
  }
  r.migrations = s.cluster().migrations();
  r.aborted = s.cluster().aborted_migrations();
  r.recovery = s.cluster().recovery_log();
  r.counters = inj.counters();

  r.recovered_at = o.restart_at;
  for (const auto& e : r.recovery)
    if (e.kind == RecoveryEvent::Kind::ReplayComplete) r.recovered_at = e.at;

  auto ops_at = [&](Time t) -> double {
    std::uint64_t prev = 0;
    for (const auto& [st, n] : samples) {
      if (st > t) break;
      prev = n;
    }
    return static_cast<double>(prev);
  };
  const double pre_w = to_seconds(o.crash_at - 2 * kSec);
  r.pre_fault_tput = (ops_at(o.crash_at) - ops_at(2 * kSec)) / pre_w;
  const Time w0 = r.recovered_at + 2 * kSec;
  const Time w1 = w0 + (o.crash_at - 2 * kSec);
  r.post_recovery_tput = (ops_at(w1) - ops_at(w0)) / pre_w;
  return r;
}

TEST(RecoveryScenario, KillOneOfThreeMidWorkload) {
  const ScenarioOpts o{/*seed=*/11};
  const RunResult r = run_scenario(o);

  // The run completed inside the horizon: every client got every op
  // answered (possibly via retries), i.e. nothing was lost for good.
  ASSERT_LT(r.makespan, 10 * kMinute);
  // Sanity: the workload actually spanned the outage and the recovery.
  ASSERT_GT(r.makespan, r.recovered_at + 4 * kSec)
      << "scenario finished too early to exercise recovery";

  // (b) No request lost: 6 clients x (1 mkdir + N creates) all resolved.
  // The shared-dir mkdir races mean up to 5 losing mkdirs fail at their
  // clients (same as the fault-free shared-dir scenario); nothing else may
  // fail, because at-least-once retries absorb the crash.
  EXPECT_EQ(r.completed + r.failed, 6u * (o.files_per_client + 1));
  EXPECT_LE(r.failed, 5u) << "only losing mkdirs may fail";
  EXPECT_GT(r.retries, 0u) << "ops in flight at the crash must have retried";
  EXPECT_EQ(r.counters.crashes, 1u);
  EXPECT_EQ(r.counters.restarts, 1u);

  // (a) Any migration in flight at the crash aborted, tagged with the dead
  // rank, at the crash time. (Deferred requests were re-injected — covered
  // by (b): none of them may be lost.)
  for (const auto& m : r.aborted) {
    EXPECT_TRUE(m.from == kDeadRank || m.to == kDeadRank);
    EXPECT_GE(m.finished, o.crash_at);
    EXPECT_LE(m.finished, o.crash_at + kSec);
  }

  // (c) Survivors stop targeting the dead rank: no migration toward it
  // starts while it is down (mechanism refusal + laggy view exclusion).
  for (const auto& m : r.migrations) {
    if (m.started > o.crash_at && m.started < r.recovered_at) {
      EXPECT_NE(m.to, kDeadRank)
          << "export toward a dead rank at t=" << m.started;
    }
  }

  // The recovery log tells the story in order: crash first, then replay
  // completion once the rank restarted.
  ASSERT_FALSE(r.recovery.empty());
  EXPECT_EQ(r.recovery.front().kind, RecoveryEvent::Kind::Crash);
  EXPECT_EQ(r.recovery.front().rank, kDeadRank);
  bool replay_done = false;
  for (const auto& e : r.recovery)
    replay_done |= e.kind == RecoveryEvent::Kind::ReplayComplete &&
                   e.rank == kDeadRank;
  EXPECT_TRUE(replay_done);

  // (d) Post-recovery throughput within 10% of the pre-fault steady state
  // (or better: recovery may leave the cluster better balanced).
  ASSERT_GT(r.pre_fault_tput, 0.0);
  EXPECT_GE(r.post_recovery_tput, 0.9 * r.pre_fault_tput)
      << "pre=" << r.pre_fault_tput << " post=" << r.post_recovery_tput;
}

TEST(RecoveryScenario, DeterministicAcrossRuns) {
  // Same seed + same FaultPlan => identical migration records, identical
  // recovery event sequence, identical client-visible outcome.
  ScenarioOpts o;
  o.seed = 23;
  o.files_per_client = 8000;
  o.crash_at = 3 * kSec;
  o.restart_at = 6 * kSec;
  const RunResult a = run_scenario(o);
  const RunResult b = run_scenario(o);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.recovery, b.recovery);

  // A different seed perturbs the timeline (sanity check that the
  // comparison above is not vacuous).
  ScenarioOpts o2 = o;
  o2.seed = 24;
  const RunResult c = run_scenario(o2);
  EXPECT_NE(a.makespan, c.makespan);
}

TEST(RecoveryScenario, HeartbeatFaultsDoNotLoseRequests) {
  // A flaky network (drops, dups, delays) must degrade balancing, never
  // correctness.
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 3;
  cfg.cluster.seed = 5;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  cfg.retry.timeout = 2 * kSec;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  // Big enough that the run spans many balancer rounds: each round sends
  // num_mds*(num_mds-1) heartbeats, and every fault kind must trigger.
  for (int c = 0; c < 3; ++c)
    s.add_client(
        workloads::make_shared_create_workload(c, "/shared", 20000, 200));

  FaultPlan plan;
  plan.seed = 5;
  plan.hb_drop_prob = 0.4;
  plan.hb_duplicate_prob = 0.3;
  plan.hb_delay_prob = 0.5;
  plan.hb_delay_max = 2 * kSec;
  FaultInjector inj(plan);
  inj.arm(s.cluster());

  const Time makespan = s.run();
  ASSERT_LT(makespan, cfg.max_time);
  std::uint64_t completed = 0, failed = 0;
  for (const auto& c : s.clients()) {
    completed += c->ops_completed();
    failed += c->ops_failed();
  }
  EXPECT_EQ(completed + failed, 3u * 20001u);
  EXPECT_LE(failed, 2u);
  EXPECT_GT(inj.counters().hb_dropped, 0u);
  EXPECT_GT(inj.counters().hb_duplicated, 0u);
  EXPECT_GT(inj.counters().hb_delayed, 0u);
}

}  // namespace
}  // namespace mantle::fault

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "balancers/builtin.hpp"
#include "fault/fault.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

/// Pins the balancer's decisions under heartbeat faults to fixed digests.
/// The scenario has the create_shared_faults benchmark's shape: 8 ranks
/// creating in one shared directory, 5% of heartbeats dropped, 10%
/// delayed by up to 2 s, and a rank crash at 8 s with a restart after it.
/// Each digest is FNV-1a over the whole provenance dump, which holds every
/// balancer tick's input table and decision. They were taken when every
/// heartbeat delivery was still an engine event, and a change to how
/// heartbeats travel must reproduce them bit for bit, with the stale guard
/// on and off.

namespace mantle::fault {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct Pinned {
  Time makespan = 0;
  std::uint64_t provenance_digest = 0;
  FaultCounters counters;
  std::uint64_t stale_rejected = 0;
};

Pinned run_pinned(bool stale_guard) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 8;
  cfg.cluster.seed = 2015;
  cfg.cluster.split_size = 600;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.hb_stale_guard = stale_guard;
  cfg.retry.timeout = kSec;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::GreedySpillBalancer>(); });
  mds::Namespace& ns = s.cluster().ns();
  ns.mkdir(ns.root(), "shared", 0);
  for (int c = 0; c < 8; ++c) {
    workloads::CreateHeavyWorkload::Options o;
    o.dir = "/shared";
    o.make_dir = false;
    o.num_files = 1500;
    o.name_prefix = "c" + std::to_string(c) + "_";
    o.think_mean = 5 * kMsec;
    s.add_client(std::make_unique<workloads::CreateHeavyWorkload>(o));
  }
  FaultPlan plan;
  plan.crashes.push_back({8 * kSec, 1});
  plan.restarts.push_back({12 * kSec, 1});
  plan.hb_drop_prob = 0.05;
  plan.hb_delay_prob = 0.10;
  plan.hb_delay_max = 2 * kSec;
  plan.seed = 2015 ^ 0xfa175eedULL;
  FaultInjector faults(plan);
  faults.arm(s.cluster());
  s.run();

  Pinned p;
  p.makespan = s.makespan();
  p.provenance_digest = fnv1a(s.cluster().provenance().to_json());
  p.counters = faults.counters();
  p.stale_rejected = s.cluster().stale_heartbeats_rejected();
  return p;
}

TEST(DecisionPin, HeartbeatFaultsWithStaleGuard) {
  const Pinned p = run_pinned(true);
  EXPECT_GT(p.makespan, 12 * kSec);  // the restart lands mid-run
  EXPECT_EQ(p.counters.crashes, 1u);
  EXPECT_EQ(p.counters.restarts, 1u);
  EXPECT_GT(p.counters.hb_dropped, 0u);
  EXPECT_GT(p.counters.hb_delayed, 0u);
  EXPECT_GT(p.stale_rejected, 0u);
  EXPECT_EQ(p.provenance_digest, 0xf678f1a34dd21916ull);
}

TEST(DecisionPin, HeartbeatFaultsWithoutStaleGuard) {
  const Pinned p = run_pinned(false);
  EXPECT_GT(p.makespan, 12 * kSec);
  EXPECT_EQ(p.counters.crashes, 1u);
  EXPECT_EQ(p.stale_rejected, 0u);
  EXPECT_EQ(p.provenance_digest, 0x0acd4d60d6cff654ull);
}

}  // namespace
}  // namespace mantle::fault

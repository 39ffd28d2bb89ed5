#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include "balancers/builtin.hpp"

namespace mantle::fault {
namespace {

using cluster::ClusterConfig;
using cluster::MdsCluster;
using cluster::OpType;
using cluster::RecoveryEvent;
using cluster::Reply;
using cluster::Request;
using mantle::mds::DirFragId;
using mantle::mds::frag_t;
using mantle::mds::InodeId;

struct Harness {
  sim::Engine engine;
  MdsCluster cluster;
  std::vector<Reply> replies;
  std::uint64_t next_id = 1;

  explicit Harness(int num_mds, ClusterConfig cfg = {})
      : cluster(engine, [&] {
          cfg.num_mds = num_mds;
          return cfg;
        }()) {
    cluster.set_reply_handler([this](const Reply& r) { replies.push_back(r); });
  }

  void submit(OpType op, InodeId dir, const std::string& name,
              mantle::mds::MdsRank guess = 0) {
    Request r;
    r.id = next_id++;
    r.client = 0;
    r.op = op;
    r.dir = dir;
    r.name = name;
    r.issued_at = engine.now();
    cluster.client_submit(std::move(r), guess);
  }

  Reply do_op(OpType op, InodeId dir, const std::string& name,
              mantle::mds::MdsRank guess = 0) {
    const std::size_t before = replies.size();
    submit(op, dir, name, guess);
    engine.run();
    EXPECT_EQ(replies.size(), before + 1);
    return replies.back();
  }

  /// Count recovery events of one kind.
  std::size_t recovery_count(RecoveryEvent::Kind kind) const {
    std::size_t n = 0;
    for (const auto& e : cluster.recovery_log()) n += e.kind == kind;
    return n;
  }
};

TEST(Fault, CrashAndRestartFlipLiveness) {
  Harness h(3);
  EXPECT_TRUE(h.cluster.is_up(0));
  EXPECT_EQ(h.cluster.num_up(), 3);

  EXPECT_TRUE(h.cluster.crash_mds(1));
  EXPECT_FALSE(h.cluster.is_up(1));
  EXPECT_EQ(h.cluster.num_up(), 2);
  EXPECT_FALSE(h.cluster.crash_mds(1)) << "already down";

  EXPECT_TRUE(h.cluster.restart_mds(1));
  EXPECT_FALSE(h.cluster.is_up(1)) << "replaying, not serving yet";
  h.engine.run();  // replay completes
  EXPECT_TRUE(h.cluster.is_up(1));
  EXPECT_EQ(h.cluster.num_up(), 3);
  EXPECT_FALSE(h.cluster.restart_mds(1)) << "not down";
}

TEST(Fault, PickUpRankSkipsDeadRanks) {
  Harness h(3);
  EXPECT_EQ(h.cluster.pick_up_rank(0), 1);
  h.cluster.crash_mds(1);
  EXPECT_EQ(h.cluster.pick_up_rank(0), 2);
  h.cluster.crash_mds(0);
  EXPECT_EQ(h.cluster.pick_up_rank(2), 2) << "only survivor, even if avoided";
}

TEST(Fault, CrashDropsQueuedRequestsAndLogsIt) {
  Harness h(1);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d");
  ASSERT_TRUE(mk.ok);
  // Pile up requests, then kill the rank before the engine runs them.
  for (int i = 0; i < 5; ++i)
    h.submit(OpType::Create, mk.result_ino, "f" + std::to_string(i));
  h.engine.run_until(h.engine.now() + cluster::kNetLatency + 1);
  const std::size_t before = h.replies.size();
  h.cluster.crash_mds(0);
  h.engine.run();
  EXPECT_EQ(h.replies.size(), before) << "no replies from a dead rank";
  EXPECT_GT(h.cluster.requests_dropped(), 0u);
  // The dumped counter sees the requests the crash dropped from the queue.
  EXPECT_EQ(h.cluster.metrics().counter("mds_requests_dropped_total").value(),
            h.cluster.requests_dropped());
  ASSERT_EQ(h.recovery_count(RecoveryEvent::Kind::Crash), 1u);
}

TEST(Fault, RestartReplayTimeGrowsWithJournal) {
  // Journal length enters the replay duration linearly. Journals hold
  // migration events, not client ops, so seed entries directly. The
  // restart lands before the survivor's takeover replay, which then
  // stands down.
  auto replay_time = [](std::size_t entries) {
    Harness h(2);
    for (std::size_t i = 0; i < entries; ++i)
      h.cluster.journal(0).append("EExport frag " + std::to_string(i));
    h.cluster.crash_mds(0);
    const Time t0 = h.engine.now();
    h.cluster.restart_mds(0);
    h.engine.run();
    const auto& log = h.cluster.recovery_log();
    EXPECT_GE(log.size(), 3u);  // Crash, RestartStart, ReplayComplete
    const auto& done = log.back();
    EXPECT_EQ(done.kind, RecoveryEvent::Kind::ReplayComplete);
    return done.at - t0;
  };

  EXPECT_EQ(replay_time(0), cluster::kReplayBase);
  EXPECT_EQ(replay_time(40),
            cluster::kReplayBase + 40 * cluster::kReplayPerEntry);
  EXPECT_GT(replay_time(40), replay_time(5));
}

TEST(Fault, TakeoverMovesSubtreesToSurvivor) {
  Harness h(3);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "proj");
  const InodeId proj = mk.result_ino;
  h.do_op(OpType::Create, proj, "f");
  const DirFragId frag{proj, frag_t()};
  ASSERT_TRUE(h.cluster.export_subtree(frag, 2));
  h.engine.run();
  ASSERT_EQ(h.cluster.auth_of(frag), 2);

  h.cluster.crash_mds(2);
  h.engine.run();  // replay + adoption
  EXPECT_EQ(h.cluster.auth_of(frag), 0) << "lowest up rank adopts";
  EXPECT_EQ(h.recovery_count(RecoveryEvent::Kind::TakeoverStart), 1u);
  EXPECT_EQ(h.recovery_count(RecoveryEvent::Kind::TakeoverComplete), 1u);
  // The subtree is serviceable on the survivor.
  EXPECT_TRUE(h.do_op(OpType::Create, proj, "g", 0).ok);
}

TEST(Fault, RestartBeforeTakeoverKeepsSubtrees) {
  Harness h(3);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "proj");
  const InodeId proj = mk.result_ino;
  const DirFragId frag{proj, frag_t()};
  ASSERT_TRUE(h.cluster.export_subtree(frag, 1));
  h.engine.run();

  h.cluster.crash_mds(1);
  // A request for the dead subtree parks instead of vanishing. Stop well
  // before the survivor's takeover replay (at least kReplayBase) lands.
  h.submit(OpType::Create, proj, "x", 0);
  h.engine.run_until(h.engine.now() + cluster::kReplayBase / 5);
  EXPECT_EQ(h.cluster.dead_letter_size(), 1u);
  EXPECT_EQ(h.cluster.auth_of(frag), 1) << "takeover still replaying";

  const std::size_t before = h.replies.size();
  h.cluster.restart_mds(1);
  h.engine.run();
  EXPECT_TRUE(h.cluster.is_up(1));
  ASSERT_EQ(h.replies.size(), before + 1) << "parked request re-injected";
  EXPECT_TRUE(h.replies.back().ok);
}

TEST(Fault, MigrationAbortsWhenImporterDies) {
  Harness h(2);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "proj");
  const InodeId proj = mk.result_ino;
  for (int i = 0; i < 20; ++i)
    h.do_op(OpType::Create, proj, "f" + std::to_string(i));
  const DirFragId frag{proj, frag_t()};
  ASSERT_TRUE(h.cluster.export_subtree(frag, 1));

  // Requests arriving mid-migration are deferred on the frozen subtree.
  h.submit(OpType::Create, proj, "during", 0);
  h.engine.run_until(h.engine.now() + cluster::kNetLatency * 3);
  ASSERT_TRUE(h.cluster.is_frozen(frag));

  h.cluster.crash_mds(1);  // importer dies mid-2PC
  h.engine.run();
  ASSERT_EQ(h.cluster.aborted_migrations().size(), 1u);
  EXPECT_EQ(h.cluster.aborted_migrations()[0].to, 1);
  EXPECT_TRUE(h.cluster.migrations().empty()) << "nothing committed";
  EXPECT_EQ(h.cluster.auth_of(frag), 0) << "rollback: exporter keeps subtree";
  EXPECT_FALSE(h.cluster.is_frozen(frag));
  // The deferred request was re-injected and served by the exporter.
  ASSERT_FALSE(h.replies.empty());
  EXPECT_TRUE(h.replies.back().ok);
  EXPECT_EQ(h.replies.back().served_by, 0);
  EXPECT_EQ(h.recovery_count(RecoveryEvent::Kind::MigrationAborted), 1u);
}

TEST(Fault, MigrationAbortsWhenExporterDies) {
  Harness h(3);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "proj");
  const InodeId proj = mk.result_ino;
  h.do_op(OpType::Create, proj, "f");
  const DirFragId frag{proj, frag_t()};
  ASSERT_TRUE(h.cluster.export_subtree(frag, 1));
  h.engine.run();
  ASSERT_EQ(h.cluster.auth_of(frag), 1);

  // Second migration 1 -> 2; kill the exporter mid-flight.
  ASSERT_TRUE(h.cluster.export_subtree(frag, 2));
  ASSERT_TRUE(h.cluster.is_frozen(frag));
  h.cluster.crash_mds(1);
  h.engine.run();
  ASSERT_EQ(h.cluster.aborted_migrations().size(), 1u);
  EXPECT_EQ(h.cluster.aborted_migrations()[0].from, 1);
  EXPECT_FALSE(h.cluster.is_frozen(frag));
  // Takeover replays mds1's journal and hands its subtrees to mds0.
  EXPECT_EQ(h.cluster.auth_of(frag), 0);
  EXPECT_TRUE(h.do_op(OpType::Create, proj, "after", 0).ok);
}

TEST(Fault, ExportRefusedTowardDeadRank) {
  Harness h(2);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d");
  h.cluster.crash_mds(1);
  EXPECT_FALSE(h.cluster.export_subtree({mk.result_ino, frag_t()}, 1));
}

TEST(Fault, InjectorSchedulesCrashAndRestart) {
  Harness h(2);
  FaultPlan plan;
  plan.crashes.push_back({10 * kSec, 1});
  plan.restarts.push_back({20 * kSec, 1});
  FaultInjector inj(plan);
  inj.arm(h.cluster);

  h.engine.run_until(15 * kSec);
  EXPECT_FALSE(h.cluster.is_up(1));
  h.engine.run_until(60 * kSec);
  h.engine.run();
  EXPECT_TRUE(h.cluster.is_up(1));
  EXPECT_EQ(inj.counters().crashes, 1u);
  EXPECT_EQ(inj.counters().restarts, 1u);
}

TEST(Fault, InjectorDropsHeartbeats) {
  Harness h(2, [] {
    ClusterConfig cfg;
    cfg.bal_interval = kSec;
    return cfg;
  }());
  FaultPlan plan;
  plan.hb_drop_prob = 1.0;  // lose every heartbeat
  FaultInjector inj(plan);
  inj.arm(h.cluster);
  h.cluster.set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  h.cluster.start();
  h.engine.run_until(10 * kSec);
  EXPECT_GT(inj.counters().hb_dropped, 0u);
  EXPECT_EQ(inj.counters().hb_duplicated, 0u);
}

TEST(Fault, ClusterViewAliveHelpers) {
  cluster::ClusterView view;
  view.mdss.resize(3);
  EXPECT_TRUE(view.is_alive(0)) << "empty alive = everyone presumed up";
  EXPECT_EQ(view.alive_count(), 3u);
  view.alive = {1, 0, 1};
  EXPECT_TRUE(view.is_alive(0));
  EXPECT_FALSE(view.is_alive(1));
  EXPECT_EQ(view.alive_count(), 2u);
}

}  // namespace
}  // namespace mantle::fault

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"

/// Graceful-degradation hardening: the stale-epoch heartbeat guard, the
/// bounded export retry with exponential backoff, the stuck-export
/// watchdog and laggy-peer eviction and readmission. Each test drives the
/// cluster directly (no scenario harness) so the failure modes are
/// constructed exactly, not hoped for.

namespace mantle::cluster {
namespace {

using mantle::mds::DirFragId;
using mantle::mds::frag_t;
using mantle::mds::InodeId;

struct Harness {
  sim::Engine engine;
  MdsCluster cluster;
  std::vector<Reply> replies;

  explicit Harness(int num_mds, ClusterConfig cfg = {})
      : cluster(engine, [&] {
          cfg.num_mds = num_mds;
          return cfg;
        }()) {
    cluster.set_reply_handler([this](const Reply& r) { replies.push_back(r); });
  }

  Reply do_op(OpType op, InodeId dir, const std::string& name) {
    static std::uint64_t next_id = 1;
    Request r;
    r.id = next_id++;
    r.client = 0;
    r.op = op;
    r.dir = dir;
    r.name = name;
    r.issued_at = engine.now();
    const std::size_t before = replies.size();
    cluster.client_submit(std::move(r), 0);
    engine.run();
    EXPECT_EQ(replies.size(), before + 1);
    return replies.back();
  }

  /// A directory with `files` entries under the root, owned by rank 0.
  DirFragId make_dir(const std::string& name, int files) {
    const Reply mk = do_op(OpType::Mkdir, cluster.ns().root(), name);
    EXPECT_TRUE(mk.ok);
    for (int i = 0; i < files; ++i)
      EXPECT_TRUE(do_op(OpType::Create, mk.result_ino,
                        "f" + std::to_string(i))
                      .ok);
    return {mk.result_ino, frag_t()};
  }

  std::size_t trace_count(obs::EventKind kind) const {
    std::size_t n = 0;
    for (const auto& e : cluster.trace().events()) n += e.kind == kind;
    return n;
  }
};

HeartbeatPayload make_hb(mds::MdsRank rank, std::uint64_t epoch,
                         Time sent_at) {
  HeartbeatPayload hb;
  hb.rank = rank;
  hb.epoch = epoch;
  hb.sent_at = sent_at;
  hb.all_metaload = 1.0;
  return hb;
}

// ---------------------------------------------------------------------------
// Stale-epoch heartbeat guard (the seeded chaos bug, asserted directly).
// ---------------------------------------------------------------------------

TEST(Hardening, StaleEpochHeartbeatRejectedAfterCrash) {
  Harness h(3);
  auto& observer = h.cluster.node(1);

  observer.on_heartbeat(make_hb(0, 0, 100), h.engine.now());
  EXPECT_EQ(observer.heartbeats()[0].sent_at, 100u);

  // Rank 0 dies: its next incarnation is epoch 1. A heartbeat duplicated
  // or delayed from before the crash still carries epoch 0.
  ASSERT_TRUE(h.cluster.crash_mds(0));
  EXPECT_EQ(h.cluster.crash_epoch(0), 1u);

  observer.on_heartbeat(make_hb(0, 0, 200), h.engine.now());
  EXPECT_EQ(observer.heartbeats()[0].sent_at, 100u) << "stale epoch applied";
  EXPECT_EQ(h.cluster.stale_heartbeats_rejected(), 1u);
  // The observer's next tick reports the rejection in its hb-received
  // summary.
  observer.tick();
  const std::vector<obs::TraceEvent>& evs = h.cluster.trace().events();
  const auto summary = std::find_if(evs.begin(), evs.end(), [](const auto& e) {
    return e.kind == obs::EventKind::HeartbeatReceived && e.rank == 1;
  });
  ASSERT_NE(summary, evs.end());
  EXPECT_EQ(summary->fields[0], std::make_pair(std::string("applied"), 1.0));
  EXPECT_EQ(summary->fields[1], std::make_pair(std::string("stale"), 1.0));

  // The new incarnation's payloads pass.
  observer.on_heartbeat(make_hb(0, 1, 300), h.engine.now());
  EXPECT_EQ(observer.heartbeats()[0].sent_at, 300u);
  EXPECT_EQ(h.cluster.stale_heartbeats_rejected(), 1u);
}

TEST(Hardening, SameEpochOutOfOrderHeartbeatRejected) {
  Harness h(2);
  auto& observer = h.cluster.node(1);

  observer.on_heartbeat(make_hb(0, 0, 500), h.engine.now());
  // Reordered in the network:
  observer.on_heartbeat(make_hb(0, 0, 400), h.engine.now());
  EXPECT_EQ(observer.heartbeats()[0].sent_at, 500u);
  EXPECT_EQ(h.cluster.stale_heartbeats_rejected(), 1u);

  // An exact duplicate (same epoch, same timestamp) is idempotent, not
  // stale: applying it changes nothing, so it is not counted.
  observer.on_heartbeat(make_hb(0, 0, 500), h.engine.now());
  EXPECT_EQ(h.cluster.stale_heartbeats_rejected(), 1u);
}

TEST(Hardening, GuardOffRegressionAppliesStaleState) {
  // The seeded bug the chaos engine must rediscover via --no-stale-guard:
  // with the guard disabled, a pre-crash heartbeat overwrites fresher
  // post-crash state in the observer's table.
  ClusterConfig cfg;
  cfg.hb_stale_guard = false;
  Harness h(3, cfg);
  auto& observer = h.cluster.node(1);

  observer.on_heartbeat(make_hb(0, 1, 300), h.engine.now());
  // Stale incarnation:
  observer.on_heartbeat(make_hb(0, 0, 200), h.engine.now());
  EXPECT_EQ(observer.heartbeats()[0].sent_at, 200u) << "guard unexpectedly on";
  EXPECT_EQ(observer.heartbeats()[0].epoch, 0u);
  EXPECT_EQ(h.cluster.stale_heartbeats_rejected(), 0u);
}

// ---------------------------------------------------------------------------
// Bounded export retry with exponential backoff.
// ---------------------------------------------------------------------------

TEST(Hardening, CrashAbortedExportRetriesAndCommits) {
  ClusterConfig cfg;
  cfg.export_retry_base = 10 * kMsec;
  cfg.export_retry_cap = 100 * kMsec;
  cfg.export_retry_max = 6;  // enough budget to outlast the replay window
  Harness h(3, cfg);
  const DirFragId d = h.make_dir("exported", 20);

  ASSERT_TRUE(h.cluster.export_subtree(d, 1));
  ASSERT_EQ(h.cluster.active_migration_count(), 1u);

  // The importer dies mid-2PC: the export aborts (no orphaned state) and
  // a retry is armed with backoff.
  ASSERT_TRUE(h.cluster.crash_mds(1));
  EXPECT_EQ(h.cluster.active_migration_count(), 0u);
  ASSERT_EQ(h.cluster.aborted_migrations().size(), 1u);
  EXPECT_EQ(h.cluster.aborted_migrations()[0].frag, d);
  EXPECT_GE(h.trace_count(obs::EventKind::ExportRetry), 1u);

  // Once the importer is back, a re-attempt lands the subtree there.
  ASSERT_TRUE(h.cluster.restart_mds(1));
  h.engine.run();
  bool committed = false;
  for (const auto& m : h.cluster.migrations())
    committed |= m.frag == d && m.to == 1;
  EXPECT_TRUE(committed) << "retry never re-exported the subtree";
  EXPECT_EQ(h.cluster.subtree_roots().at(d), 1);
}

TEST(Hardening, ExportRetryBudgetIsBounded) {
  ClusterConfig cfg;
  cfg.export_retry_base = 10 * kMsec;
  cfg.export_retry_cap = 40 * kMsec;
  cfg.export_retry_max = 2;
  Harness h(3, cfg);
  const DirFragId d = h.make_dir("exported", 20);

  ASSERT_TRUE(h.cluster.export_subtree(d, 1));
  ASSERT_TRUE(h.cluster.crash_mds(1));
  // The importer never comes back: every re-attempt is refused and
  // re-arms, until the budget is spent. The engine must run dry instead
  // of retrying forever.
  h.engine.run();
  EXPECT_LE(h.trace_count(obs::EventKind::ExportRetry),
            static_cast<std::size_t>(cfg.export_retry_max));
  EXPECT_EQ(h.cluster.active_migration_count(), 0u);
  for (const auto& m : h.cluster.migrations()) EXPECT_NE(m.frag, d);
}

// ---------------------------------------------------------------------------
// Stuck-export watchdog.
// ---------------------------------------------------------------------------

TEST(Hardening, StuckExportAbortedByWatchdog) {
  ClusterConfig cfg;
  cfg.bal_interval = 50 * kMsec;
  cfg.export_stuck_ticks = 1;   // wedged after one balance interval
  cfg.mig_base = 10 * kSec;     // the 2PC itself would take 10 s
  Harness h(3, cfg);
  const DirFragId d = h.make_dir("stuck", 20);

  ASSERT_TRUE(h.cluster.export_subtree(d, 1));
  h.engine.run();

  // Aborted by the watchdog, not committed; authority never moved and the
  // subtree is not left frozen (a new export of it is admissible).
  ASSERT_EQ(h.cluster.aborted_migrations().size(), 1u);
  EXPECT_TRUE(h.cluster.migrations().empty());
  EXPECT_EQ(h.cluster.auth_of(d), 0);
  EXPECT_FALSE(h.cluster.is_frozen(d));
  // A watchdog abort is not a crash abort: no retry is armed.
  EXPECT_EQ(h.trace_count(obs::EventKind::ExportRetry), 0u);
}

// ---------------------------------------------------------------------------
// Laggy-peer eviction and readmission.
// ---------------------------------------------------------------------------

/// Captures the ClusterView each balance tick; orders no migrations.
struct CaptureBalancer final : Balancer {
  std::vector<ClusterView>* views;
  explicit CaptureBalancer(std::vector<ClusterView>* v) : views(v) {}
  std::string name() const override { return "capture"; }
  double metaload(const PopSnapshot&) const override { return 0.0; }
  double mdsload(const HeartbeatPayload& hb) const override {
    return hb.all_metaload;
  }
  bool when(const ClusterView& view) override {
    views->push_back(view);
    return false;
  }
  std::vector<double> where(const ClusterView&) override { return {}; }
  std::vector<std::string> howmuch() const override { return {}; }
};

TEST(Hardening, DefaultReadmitIsImmediate) {
  // A peer silent past three balance intervals drops out of the view,
  // and one fresh heartbeat readmits it on the next tick.
  ClusterConfig cfg;
  cfg.bal_interval = 100 * kMsec;  // laggy past 300 ms of silence
  cfg.bal_min_load = 0.0;  // ensure when() (and thus capture) runs each tick
  Harness h(2, cfg);
  std::vector<ClusterView> views;
  h.cluster.set_balancer(0, std::make_unique<CaptureBalancer>(&views));

  auto tick_fresh = [&] {
    h.cluster.node(0).on_heartbeat(make_hb(1, 0, h.engine.now()),
                                   h.engine.now());
    h.cluster.node(0).tick();
    h.engine.run();  // drain the tick's own heartbeat sends
    return views.back().alive[1] != 0;
  };
  EXPECT_TRUE(tick_fresh());

  // Let the last heartbeat age out: the peer is evicted and contributes
  // zero load to the view.
  h.engine.schedule_after(400 * kMsec, [] {});
  h.engine.run();
  h.cluster.node(0).tick();
  h.engine.run();
  EXPECT_EQ(views.back().alive[1], 0);
  EXPECT_EQ(views.back().loads[1], 0.0);

  EXPECT_TRUE(tick_fresh());
}

}  // namespace
}  // namespace mantle::cluster

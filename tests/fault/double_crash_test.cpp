#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "chaos/invariant.hpp"
#include "cluster/cluster.hpp"
#include "obs/trace.hpp"

/// Back-to-back crash of the same rank: the second crash lands while the
/// rank is still replaying its journal from the first one. The takeover
/// and replay timers of the first incarnation must not fire into the
/// second (that is what crash epochs guard), every invariant must hold
/// once the dust settles, and each crash arc must get its own causal
/// span so the timeline shows two distinct recovery episodes.

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

  Reply do_op(OpType op, InodeId dir, const std::string& name) {
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

  std::size_t recovery_count(RecoveryEvent::Kind kind,
                             mantle::mds::MdsRank rank) const {
    std::size_t n = 0;
    for (const auto& e : cluster.recovery_log())
      n += e.kind == kind && e.rank == rank;
    return n;
  }
};

TEST(DoubleCrash, CrashDuringReplayRecoversCleanly) {
  Harness h(3);

  // Give rank 1 a subtree of its own so both the takeover path and the
  // replay path have real state to move.
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d");
  ASSERT_TRUE(mk.ok);
  for (int i = 0; i < 20; ++i)
    ASSERT_TRUE(h.do_op(OpType::Create, mk.result_ino,
                        "f" + std::to_string(i))
                    .ok);
  const DirFragId d{mk.result_ino, frag_t()};
  ASSERT_TRUE(h.cluster.export_subtree(d, 1));
  h.engine.run();
  ASSERT_EQ(h.cluster.auth_of(d), 1);

  // First crash; let the survivors complete the takeover.
  ASSERT_TRUE(h.cluster.crash_mds(1));
  h.engine.run();
  EXPECT_EQ(h.cluster.crash_epoch(1), 1u);

  // Restart, then crash again a moment later — well inside the replay
  // window (replay_base is 50 ms) — and bring it back once more.
  ASSERT_TRUE(h.cluster.restart_mds(1));
  h.engine.schedule_after(10 * kMsec,
                          [&h] { ASSERT_TRUE(h.cluster.crash_mds(1)); });
  h.engine.schedule_after(200 * kMsec,
                          [&h] { ASSERT_TRUE(h.cluster.restart_mds(1)); });
  h.engine.run();

  // The rank is serving again and its second replay completed.
  EXPECT_TRUE(h.cluster.is_up(1));
  EXPECT_EQ(h.cluster.crash_epoch(1), 2u);
  EXPECT_EQ(h.recovery_count(RecoveryEvent::Kind::Crash, 1), 2u);
  EXPECT_GE(h.recovery_count(RecoveryEvent::Kind::ReplayComplete, 1), 1u);

  // Namespace still serves and every cluster invariant holds, including
  // the quiesce set (no open migration, drained dead letters).
  EXPECT_TRUE(h.do_op(OpType::Lookup, mk.result_ino, "f0").ok);
  chaos::InvariantChecker chk(h.cluster);
  chk.check_quiesce(h.engine.now());
  EXPECT_TRUE(chk.ok()) << chk.violations()[0].invariant << ": "
                        << chk.violations()[0].detail;
}

TEST(DoubleCrash, EachCrashArcGetsItsOwnRecoverySpan) {
  Harness h(3);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d");
  ASSERT_TRUE(mk.ok);

  ASSERT_TRUE(h.cluster.crash_mds(1));
  ASSERT_TRUE(h.cluster.restart_mds(1));
  h.engine.schedule_after(10 * kMsec,
                          [&h] { ASSERT_TRUE(h.cluster.crash_mds(1)); });
  h.engine.schedule_after(200 * kMsec,
                          [&h] { ASSERT_TRUE(h.cluster.restart_mds(1)); });
  h.engine.run();

  // Two Crash trace events for rank 1, with two distinct spans; every
  // recovery-arc event (restart, takeover, replay) belongs to one of them.
  std::set<obs::SpanId> crash_spans;
  std::size_t arc_events = 0;
  for (const auto& e : h.cluster.trace().events()) {
    if (e.rank != 1) continue;
    switch (e.kind) {
      case obs::EventKind::Crash:
        crash_spans.insert(e.span);
        break;
      case obs::EventKind::Restart:
      case obs::EventKind::TakeoverStart:
      case obs::EventKind::TakeoverComplete:
      case obs::EventKind::ReplayComplete:
        ++arc_events;
        EXPECT_TRUE(crash_spans.count(e.span))
            << obs::event_kind_name(e.kind) << " outside any crash span";
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(crash_spans.size(), 2u);
  EXPECT_FALSE(crash_spans.count(obs::kNoSpan));
  EXPECT_GE(arc_events, 2u);
}

}  // namespace
}  // namespace mantle::fault

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/invariant.hpp"
#include "cluster/cluster.hpp"
#include "mds/namespace.hpp"
#include "obs/trace.hpp"

/// The invariant checker is the oracle of every chaos run: these tests
/// pin down that it stays silent on a healthy cluster and that each
/// deliberately corrupted property is called out by name.

namespace mantle::chaos {
namespace {

using cluster::ClusterConfig;
using cluster::MdsCluster;
using cluster::OpType;
using cluster::Reply;
using cluster::Request;
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
    cluster.client_submit(std::move(r), 0);
    engine.run();
    return replies.back();
  }

  /// Build a little namespace so the cover/heat walks have work to do.
  InodeId populate() {
    const Reply mk = do_op(OpType::Mkdir, cluster.ns().root(), "d");
    EXPECT_TRUE(mk.ok);
    for (int i = 0; i < 8; ++i)
      EXPECT_TRUE(
          do_op(OpType::Create, mk.result_ino, "f" + std::to_string(i)).ok);
    return mk.result_ino;
  }
};

bool has_violation(const InvariantChecker& chk, const std::string& name) {
  for (const auto& v : chk.violations())
    if (v.invariant == name) return true;
  return false;
}

TEST(Invariant, HealthyClusterPassesTickAndQuiesce) {
  Harness h(3);
  h.populate();
  InvariantChecker chk(h.cluster);
  chk.check_tick(h.engine.now());
  chk.check_quiesce(h.engine.now());
  EXPECT_TRUE(chk.ok()) << chk.violations()[0].invariant << ": "
                        << chk.violations()[0].detail;
  EXPECT_GT(chk.checks(), 0u);
}

TEST(Invariant, AuthAnnotationDisagreeingWithSubtreeMapIsCaught) {
  Harness h(3);
  const InodeId d = h.populate();
  // The subtree map says rank 0 owns everything; flip one frag's auth
  // annotation behind the cluster's back.
  h.cluster.ns().frag({d, frag_t()})->auth = 2;

  InvariantChecker chk(h.cluster);
  chk.check_tick(h.engine.now());
  EXPECT_FALSE(chk.ok());
  EXPECT_TRUE(has_violation(chk, "auth-mismatch"));

  // The breakage is mirrored into the trace for timeline reconstruction.
  bool traced = false;
  for (const auto& e : h.cluster.trace().events())
    traced |= e.kind == obs::EventKind::InvariantViolation;
  EXPECT_TRUE(traced);
}

TEST(Invariant, MintedHeatIsCaught) {
  Harness h(3);
  const InodeId d = h.populate();
  // Hitting a fragment's own popularity without the ancestor walk mints
  // heat that no parent ever accumulated.
  h.cluster.ns().frag({d, frag_t()})->pop.hit(
      mds::MetaOp::FETCH, h.engine.now(), h.cluster.ns().decay_rate());

  InvariantChecker chk(h.cluster);
  chk.check_tick(h.engine.now());
  EXPECT_TRUE(has_violation(chk, "heat-not-conserved"));
}

TEST(Invariant, HeartbeatRegressionIsCaughtWhenGuardIsOff) {
  ClusterConfig cfg;
  cfg.hb_stale_guard = false;
  Harness h(3, cfg);

  // Rank 0 really does crash and come back, so epoch 1 payloads are
  // legitimate (feeding a made-up epoch would trip hb-epoch-future).
  ASSERT_TRUE(h.cluster.crash_mds(0));
  ASSERT_TRUE(h.cluster.restart_mds(0));
  h.engine.run();

  cluster::HeartbeatPayload hb;
  hb.rank = 0;
  hb.epoch = 1;
  hb.sent_at = h.engine.now();
  h.cluster.node(1).on_heartbeat(hb, h.engine.now());

  InvariantChecker chk(h.cluster);
  chk.check_tick(h.engine.now());
  ASSERT_TRUE(chk.ok()) << chk.violations()[0].invariant << ": "
                        << chk.violations()[0].detail;

  hb.epoch = 0;  // a delayed pre-crash payload lands and regresses state
  hb.sent_at = h.engine.now() / 2;
  h.cluster.node(1).on_heartbeat(hb, h.engine.now());
  chk.check_tick(h.engine.now());
  EXPECT_TRUE(has_violation(chk, "hb-regressed"));
}

TEST(Invariant, GuardPreventsHeartbeatRegression) {
  Harness h(3);  // hb_stale_guard defaults on
  ASSERT_TRUE(h.cluster.crash_mds(0));
  ASSERT_TRUE(h.cluster.restart_mds(0));
  h.engine.run();

  cluster::HeartbeatPayload hb;
  hb.rank = 0;
  hb.epoch = 1;
  hb.sent_at = h.engine.now();
  h.cluster.node(1).on_heartbeat(hb, h.engine.now());
  hb.epoch = 0;
  hb.sent_at = h.engine.now() / 2;
  h.cluster.node(1).on_heartbeat(hb, h.engine.now());  // the guard rejects

  InvariantChecker chk(h.cluster);
  chk.check_tick(h.engine.now());
  EXPECT_TRUE(chk.ok()) << chk.violations()[0].invariant << ": "
                        << chk.violations()[0].detail;
}

TEST(Invariant, QuiesceRequiresEveryRankUp) {
  Harness h(3);
  h.populate();
  ASSERT_TRUE(h.cluster.crash_mds(1));
  h.engine.run();

  InvariantChecker chk(h.cluster);
  chk.check_quiesce(h.engine.now());
  EXPECT_TRUE(has_violation(chk, "quiesce-rank-down"));
}

}  // namespace
}  // namespace mantle::chaos

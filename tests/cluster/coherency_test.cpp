#include <gtest/gtest.h>

#include "cluster/cluster.hpp"

namespace mantle::cluster {
namespace {

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

  Reply do_op(OpType op, InodeId dir, const std::string& name,
              mantle::mds::MdsRank guess = 0, int client = 0) {
    static std::uint64_t next_id = 1;
    Request r;
    r.id = next_id++;
    r.client = client;
    r.op = op;
    r.dir = dir;
    r.name = name;
    r.issued_at = engine.now();
    cluster.client_submit(std::move(r), guess);
    engine.run();
    return replies.back();
  }
};

TEST(Coherency, RemotePrefixOpsCountedAfterMigration) {
  Harness h(2);
  const InodeId d = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d").result_ino;
  h.do_op(OpType::Create, d, "before");
  EXPECT_EQ(h.cluster.node(0).stats().remote_prefix_ops, 0u);

  // Move /d to mds1; its parent dentry stays with mds0, so every op mds1
  // now serves pays the replicated-prefix tax.
  ASSERT_TRUE(h.cluster.export_subtree({d, frag_t()}, 1));
  h.engine.run();
  const Reply r = h.do_op(OpType::Create, d, "after", /*guess=*/1);
  EXPECT_EQ(r.served_by, 1);
  EXPECT_EQ(h.cluster.node(1).stats().remote_prefix_ops, 1u);
}

TEST(Coherency, ScatterGatherCostScalesWithSharers) {
  // Same op on a directory whose fragments span 1 vs 3 MDS nodes: the
  // 3-sharer create takes strictly longer.
  auto timed_create = [](int sharers) {
    ClusterConfig cfg;
    cfg.svc_jitter = 0.0;  // deterministic timing
    Harness h(3, cfg);
    const InodeId d =
        h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d").result_ino;
    for (int i = 0; i < 64; ++i) h.do_op(OpType::Create, d, "f" + std::to_string(i));
    h.cluster.ns().split({d, frag_t()}, 2, h.engine.now());
    if (sharers >= 2) {
      const auto& frags = h.cluster.ns().dir(d)->frags;
      auto it = frags.begin();
      std::vector<frag_t> fs;
      for (const auto& [f, df] : frags) fs.push_back(f);
      (void)it;
      h.cluster.export_subtree({d, fs[0]}, 1);
      if (sharers >= 3) h.cluster.export_subtree({d, fs[1]}, 2);
      h.engine.run();
    }
    // Create through the still-mds0-owned fragment.
    std::string name = "probe";
    int suffix = 0;
    while (h.cluster.auth_of(h.cluster.ns().frag_of(d, name)) != 0)
      name = "probe" + std::to_string(++suffix);
    // Probe from a client with no prior session: immune to the
    // session-flush stall caused by the setup migrations.
    const Reply r = h.do_op(OpType::Create, d, name, 0, /*client=*/7);
    EXPECT_TRUE(r.ok);
    return r.finished_at - r.issued_at;
  };
  const Time t1 = timed_create(1);
  const Time t2 = timed_create(2);
  const Time t3 = timed_create(3);
  EXPECT_GT(t2, t1);
  EXPECT_GT(t3, t2);
  // Quadratic growth: the 3-sharer penalty is 4x the 2-sharer one.
  EXPECT_EQ(t2 - t1, kSvcScatterGather);
  EXPECT_EQ(t3 - t1, 4 * kSvcScatterGather);
}

TEST(Coherency, ReadsDoNotPayScatterGather) {
  ClusterConfig cfg;
  cfg.svc_jitter = 0.0;
  Harness h(2, cfg);
  const InodeId d = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d").result_ino;
  for (int i = 0; i < 32; ++i) h.do_op(OpType::Create, d, "f" + std::to_string(i));
  const Reply before = h.do_op(OpType::Getattr, d, "f0", 0, /*client=*/7);
  // Split and spread the dir over both nodes.
  h.cluster.ns().split({d, frag_t()}, 1, h.engine.now());
  std::vector<frag_t> fs;
  for (const auto& [f, df] : h.cluster.ns().dir(d)->frags) fs.push_back(f);
  h.cluster.export_subtree({d, fs[1]}, 1);
  h.engine.run();
  // A getattr served by the original authority costs the same as before.
  std::string name = "f0";
  for (int i = 0; i < 32; ++i) {
    name = "f" + std::to_string(i);
    if (h.cluster.auth_of(h.cluster.ns().frag_of(d, name)) == 0) break;
  }
  const Reply after = h.do_op(OpType::Getattr, d, name, 0, /*client=*/8);
  EXPECT_EQ(after.finished_at - after.issued_at,
            before.finished_at - before.issued_at);
}

TEST(Coherency, ReplyCarriesServingFragment) {
  Harness h(1);
  const InodeId d = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d").result_ino;
  for (int i = 0; i < 10; ++i) h.do_op(OpType::Create, d, "f" + std::to_string(i));
  h.cluster.ns().split({d, frag_t()}, 2, h.engine.now());
  const Reply r = h.do_op(OpType::Lookup, d, "f3");
  EXPECT_TRUE(r.frag.contains(mantle::mds::hash_dentry_name("f3")));
  EXPECT_EQ(r.frag.bits(), 2);
}

TEST(Jitter, TicksAndHeartbeatsAreSeedDeterministic) {
  // Ticks re-arm themselves forever, so this test must run the engine
  // only up to a horizon (engine.run() would never drain after start()).
  auto run_sig = [](std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.seed = seed;
    cfg.bal_interval = 100 * mantle::kMsec;
    Harness h(3, cfg);
    const InodeId d =
        h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d").result_ino;
    for (int i = 0; i < 50; ++i)
      h.do_op(OpType::Create, d, "f" + std::to_string(i));
    h.cluster.start();
    h.engine.run_until(h.engine.now() + mantle::kSec);
    // Signature: the (jittered) time of the last dispatched tick.
    return h.engine.now();
  };
  const Time a = run_sig(5);
  EXPECT_EQ(a, run_sig(5));
  EXPECT_GT(a, 0u);
}

}  // namespace
}  // namespace mantle::cluster

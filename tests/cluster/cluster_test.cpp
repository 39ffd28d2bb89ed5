#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "balancers/builtin.hpp"

namespace mantle::cluster {
namespace {

using mantle::mds::DirFragId;
using mantle::mds::frag_t;
using mantle::mds::InodeId;
using mantle::mds::kNoInode;

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

  /// Issue one request and run the engine dry; returns the reply.
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
    const std::size_t before = replies.size();
    cluster.client_submit(std::move(r), guess);
    engine.run();
    EXPECT_EQ(replies.size(), before + 1);
    return replies.back();
  }
};

TEST(Cluster, ServesCreateAndLookup) {
  Harness h(1);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "dir");
  ASSERT_TRUE(mk.ok);
  const InodeId dir = mk.result_ino;
  EXPECT_TRUE(h.do_op(OpType::Create, dir, "file").ok);
  EXPECT_TRUE(h.do_op(OpType::Lookup, dir, "file").ok);
  EXPECT_FALSE(h.do_op(OpType::Lookup, dir, "missing").ok);
  EXPECT_TRUE(h.do_op(OpType::Readdir, dir, "").ok);
  EXPECT_TRUE(h.do_op(OpType::Unlink, dir, "file").ok);
  EXPECT_FALSE(h.do_op(OpType::Lookup, dir, "file").ok);
}

TEST(Cluster, RepliesTakeTimeAndCarryServer) {
  Harness h(1);
  const Reply r = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d");
  EXPECT_GT(r.finished_at, r.issued_at);
  EXPECT_EQ(r.served_by, 0);
  EXPECT_EQ(r.hops, 0);
}

TEST(Cluster, UnknownDirectoryFails) {
  Harness h(1);
  const Reply r = h.do_op(OpType::Create, 424242, "x");
  EXPECT_FALSE(r.ok);
}

TEST(Cluster, RootAuthorityStartsAtRankZero) {
  Harness h(3);
  EXPECT_EQ(h.cluster.auth_of({h.cluster.ns().root(), frag_t()}), 0);
  EXPECT_EQ(h.cluster.subtree_roots().size(), 1u);
  EXPECT_EQ(h.cluster.roots_of(0).size(), 1u);
  EXPECT_TRUE(h.cluster.roots_of(1).empty());
}

TEST(Cluster, MisdirectedRequestForwards) {
  Harness h(2);
  // Everything is owned by rank 0, but the client guesses rank 1.
  const Reply r = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d", /*guess=*/1);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.served_by, 0);
  EXPECT_EQ(r.hops, 1);
  EXPECT_EQ(h.cluster.node(1).stats().forwards_out, 1u);
  EXPECT_EQ(h.cluster.node(0).stats().hits, 1u);
}

TEST(Cluster, ExportMovesAuthorityAndSubtree) {
  Harness h(2);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "proj");
  const InodeId proj = mk.result_ino;
  const Reply sub = h.do_op(OpType::Mkdir, proj, "sub");
  const InodeId subdir = sub.result_ino;
  h.do_op(OpType::Create, subdir, "f");

  const DirFragId frag{proj, frag_t()};
  ASSERT_TRUE(h.cluster.export_subtree(frag, 1));
  h.engine.run();

  EXPECT_EQ(h.cluster.auth_of(frag), 1);
  EXPECT_EQ(h.cluster.auth_of({subdir, frag_t()}), 1);
  // Root stays with rank 0.
  EXPECT_EQ(h.cluster.auth_of({h.cluster.ns().root(), frag_t()}), 0);
  ASSERT_EQ(h.cluster.migrations().size(), 1u);
  EXPECT_EQ(h.cluster.migrations()[0].entries, 2u);  // "sub" + "f"
  EXPECT_EQ(h.cluster.subtree_roots().at(frag), 1);
  EXPECT_EQ(h.cluster.node(0).stats().exports, 1u);
  EXPECT_EQ(h.cluster.node(1).stats().imports, 1u);
}

TEST(Cluster, ExportToSelfOrInvalidRankRejected) {
  Harness h(2);
  const DirFragId root{h.cluster.ns().root(), frag_t()};
  EXPECT_FALSE(h.cluster.export_subtree(root, 0));   // already owner
  EXPECT_FALSE(h.cluster.export_subtree(root, 7));   // no such rank
  EXPECT_FALSE(h.cluster.export_subtree({999, frag_t()}, 1));  // no such frag
}

TEST(Cluster, RequestsDuringMigrationAreDeferredThenServedByImporter) {
  Harness h(2);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d");
  const InodeId dir = mk.result_ino;
  // Bulk up the subtree so the migration takes a while.
  for (int i = 0; i < 200; ++i) h.do_op(OpType::Create, dir, "f" + std::to_string(i));

  ASSERT_TRUE(h.cluster.export_subtree({dir, frag_t()}, 1));
  EXPECT_TRUE(h.cluster.is_frozen({dir, frag_t()}));

  // Issue a request mid-migration; it must be answered by the importer.
  Request r;
  r.id = 999999;
  r.client = 0;
  r.op = OpType::Create;
  r.dir = dir;
  r.name = "late";
  r.issued_at = h.engine.now();
  h.cluster.client_submit(std::move(r), 0);
  h.engine.run();

  ASSERT_FALSE(h.replies.empty());
  const Reply& last = h.replies.back();
  EXPECT_EQ(last.req_id, 999999u);
  EXPECT_TRUE(last.ok);
  EXPECT_EQ(last.served_by, 1);
  EXPECT_FALSE(h.cluster.is_frozen({dir, frag_t()}));
}

TEST(Cluster, MigrationFlushesSessionsAndStallsClients) {
  Harness h(2);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d", 0, /*client=*/0);
  const InodeId dir = mk.result_ino;
  h.do_op(OpType::Create, dir, "a", 0, /*client=*/1);
  h.do_op(OpType::Create, dir, "b", 0, /*client=*/2);

  ASSERT_TRUE(h.cluster.export_subtree({dir, frag_t()}, 1));
  h.engine.run();

  // Clients 0, 1, 2 all had sessions with the exporter.
  EXPECT_EQ(h.cluster.total_sessions_flushed(), 3u);
  ASSERT_EQ(h.cluster.migrations().size(), 1u);
  EXPECT_EQ(h.cluster.migrations()[0].sessions_flushed, 3u);
}

TEST(Cluster, MigrationDurationScalesWithEntries) {
  Harness big(2);
  Harness small(2);
  for (auto* h : {&big, &small}) {
    const Reply mk = h->do_op(OpType::Mkdir, h->cluster.ns().root(), "d");
    const int files = h == &big ? 500 : 5;
    for (int i = 0; i < files; ++i)
      h->do_op(OpType::Create, mk.result_ino, "f" + std::to_string(i));
    const InodeId dir = mk.result_ino;
    ASSERT_TRUE(h->cluster.export_subtree({dir, frag_t()}, 1));
    h->engine.run();
  }
  const auto dur = [](const Harness& h) {
    const MigrationRecord& m = h.cluster.migrations().at(0);
    return m.finished - m.started;
  };
  EXPECT_GT(dur(big), dur(small));
}

TEST(Cluster, DirfragSplitsAtThreshold) {
  ClusterConfig cfg;
  cfg.split_size = 100;
  cfg.split_bits = 3;
  Harness h(1, cfg);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "big");
  const InodeId dir = mk.result_ino;
  for (int i = 0; i < 150; ++i)
    h.do_op(OpType::Create, dir, "f" + std::to_string(i));
  // The single fragment must have split into 8 (2^3) once it crossed 100.
  EXPECT_EQ(h.cluster.ns().dir(dir)->frags.size(), 8u);
  EXPECT_EQ(h.cluster.ns().dir(dir)->num_entries(), 150u);
}

TEST(Cluster, SplitOfSubtreeRootPreservesRootSet) {
  ClusterConfig cfg;
  cfg.split_size = 50;
  Harness h(2, cfg);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d");
  const InodeId dir = mk.result_ino;
  // Make it a subtree root owned by rank 1, then grow it past the split.
  ASSERT_TRUE(h.cluster.export_subtree({dir, frag_t()}, 1));
  h.engine.run();
  for (int i = 0; i < 80; ++i)
    h.do_op(OpType::Create, dir, "f" + std::to_string(i), /*guess=*/1);
  // The root entry for the whole frag is replaced by its children, all
  // owned by rank 1.
  EXPECT_EQ(h.cluster.subtree_roots().count({dir, frag_t()}), 0u);
  EXPECT_EQ(h.cluster.roots_of(1).size(), 8u);
  EXPECT_EQ(h.cluster.auth_entry_counts()[1], 80u);
}

TEST(Cluster, SubtreePopFiltersByOwner) {
  Harness h(2);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "a");
  const InodeId a = mk.result_ino;
  const Reply mkb = h.do_op(OpType::Mkdir, a, "b");
  const InodeId b = mkb.result_ino;
  for (int i = 0; i < 10; ++i) h.do_op(OpType::Create, b, "f" + std::to_string(i));

  // Give /a/b to rank 1; /a stays with rank 0.
  ASSERT_TRUE(h.cluster.export_subtree({b, frag_t()}, 1));
  h.engine.run();

  const Time now = h.engine.now();
  const PopSnapshot mine = h.cluster.subtree_pop({a, frag_t()}, 0, now);
  const PopSnapshot all = h.cluster.subtree_pop({a, frag_t()},
                                                mantle::mds::kNoRank, now);
  const PopSnapshot theirs = h.cluster.subtree_pop({b, frag_t()}, 1, now);
  // Rank 0's view of /a excludes the nested foreign subtree /a/b.
  EXPECT_LT(mine.iwr, all.iwr);
  EXPECT_GT(theirs.iwr, 0.0);  // the creates heated /a/b
  EXPECT_EQ(h.cluster.subtree_entry_count({a, frag_t()}, 0), 1u);   // just "b"
  EXPECT_EQ(h.cluster.subtree_entry_count({b, frag_t()}, 1), 10u);  // the files
}

TEST(Cluster, FragContains) {
  Harness h(1);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "a");
  const Reply mkb = h.do_op(OpType::Mkdir, mk.result_ino, "b");
  const DirFragId root{h.cluster.ns().root(), frag_t()};
  const DirFragId a{mk.result_ino, frag_t()};
  const DirFragId b{mkb.result_ino, frag_t()};
  EXPECT_TRUE(h.cluster.frag_contains(root, a));
  EXPECT_TRUE(h.cluster.frag_contains(root, b));
  EXPECT_TRUE(h.cluster.frag_contains(a, b));
  EXPECT_FALSE(h.cluster.frag_contains(a, root));
  EXPECT_FALSE(h.cluster.frag_contains(b, a));
  EXPECT_TRUE(h.cluster.frag_contains(a, a));
}

TEST(Cluster, JournalsRecordMigrationEvents) {
  Harness h(2);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d");
  ASSERT_TRUE(h.cluster.export_subtree({mk.result_ino, frag_t()}, 1));
  h.engine.run();
  auto events = [&](int r) {
    std::string all;
    for (const auto& [seq, ev] : h.cluster.journal(r).entries()) all += ev;
    return all;
  };
  const std::string j0 = events(0);
  EXPECT_NE(j0.find("EExport"), std::string::npos);
  EXPECT_NE(j0.find("EExportCommit"), std::string::npos);
  const std::string j1 = events(1);
  EXPECT_NE(j1.find("EImportStart"), std::string::npos);
  EXPECT_NE(j1.find("EImportCommit"), std::string::npos);
}

TEST(Cluster, TickProducesHeartbeatMetrics) {
  Harness h(2);
  const Reply mk = h.do_op(OpType::Mkdir, h.cluster.ns().root(), "d");
  for (int i = 0; i < 50; ++i)
    h.do_op(OpType::Create, mk.result_ino, "f" + std::to_string(i));
  HeartbeatPayload hb = h.cluster.node(0).measure();
  EXPECT_EQ(hb.rank, 0);
  EXPECT_GT(hb.auth_metaload, 0.0);
  EXPECT_GE(hb.all_metaload, hb.auth_metaload);
  EXPECT_GE(hb.mem_pct, 0.0);
  // Rank 1 owns nothing.
  HeartbeatPayload hb1 = h.cluster.node(1).measure();
  EXPECT_DOUBLE_EQ(hb1.auth_metaload, 0.0);
}

}  // namespace
}  // namespace mantle::cluster

#include "workloads/maildir.hpp"
#include "workloads/trace.hpp"

#include <gtest/gtest.h>

#include "sim/scenario.hpp"

namespace mantle::workloads {
namespace {

using cluster::OpType;

TEST(Maildir, SetupThenCreateRenamePairs) {
  Rng rng(1);
  MaildirWorkload::Options opt;
  opt.root = "/mail0";
  opt.num_messages = 3;
  opt.readdir_every = 2;
  MaildirWorkload wl(opt);

  auto op = wl.next(rng);
  ASSERT_TRUE(op);
  EXPECT_EQ(op->op, OpType::Mkdir);
  EXPECT_EQ(op->name, "mail0");
  op = wl.next(rng);
  ASSERT_TRUE(op);
  EXPECT_EQ(op->name, "tmp");
  op = wl.next(rng);
  ASSERT_TRUE(op);
  EXPECT_EQ(op->name, "new");

  // msg0: create + rename.
  op = wl.next(rng);
  ASSERT_TRUE(op);
  EXPECT_EQ(op->op, OpType::Create);
  EXPECT_EQ(op->dir_path, "/mail0/tmp");
  EXPECT_EQ(op->name, "msg0");
  op = wl.next(rng);
  ASSERT_TRUE(op);
  EXPECT_EQ(op->op, OpType::Rename);
  EXPECT_EQ(op->dir_path, "/mail0/tmp");
  EXPECT_EQ(op->dst_dir_path, "/mail0/new");
  EXPECT_EQ(op->dst_name, "msg0");

  // msg1: create + rename, then the periodic readdir of new/.
  op = wl.next(rng);
  ASSERT_TRUE(op);
  EXPECT_EQ(op->op, OpType::Create);
  op = wl.next(rng);
  ASSERT_TRUE(op);
  EXPECT_EQ(op->op, OpType::Rename);
  op = wl.next(rng);
  ASSERT_TRUE(op);
  EXPECT_EQ(op->op, OpType::Readdir);
  EXPECT_EQ(op->dir_path, "/mail0/new");

  // msg2, then done: new/ is scanned after every second delivery, so
  // the third brings no scan.
  op = wl.next(rng);
  ASSERT_TRUE(op);
  EXPECT_EQ(op->op, OpType::Create);
  op = wl.next(rng);
  ASSERT_TRUE(op);
  EXPECT_EQ(op->op, OpType::Rename);
  EXPECT_FALSE(wl.next(rng).has_value());
}

TEST(Maildir, EndToEndDeliveryLandsInNew) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 1;
  sim::Scenario s(cfg);
  s.add_client(make_maildir_workload(0, 300, 20));
  s.run();
  EXPECT_EQ(s.client(0).ops_failed(), 0u);
  auto& ns = s.cluster().ns();
  const auto tmp = ns.resolve("/mail0/tmp");
  const auto fresh = ns.resolve("/mail0/new");
  ASSERT_TRUE(tmp.found);
  ASSERT_TRUE(fresh.found);
  EXPECT_EQ(ns.dir(tmp.ino)->num_entries(), 0u);
  EXPECT_EQ(ns.dir(fresh.ino)->num_entries(), 300u);
  EXPECT_TRUE(ns.resolve("/mail0/new/msg299").found);
}

TEST(Maildir, TraceRoundTripPreservesRenames) {
  Rng rng(2);
  auto wl = make_maildir_workload(1, 5);
  const auto ops = record_workload(*wl, rng);
  const std::string text = format_trace(ops);
  const auto parsed = parse_trace(text);
  ASSERT_EQ(parsed.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(parsed[i].op, ops[i].op);
    EXPECT_EQ(parsed[i].dst_dir_path, ops[i].dst_dir_path);
    EXPECT_EQ(parsed[i].dst_name, ops[i].dst_name);
  }
}

}  // namespace
}  // namespace mantle::workloads

#include "mds/namespace.hpp"

#include <gtest/gtest.h>

namespace mantle::mds {
namespace {

TEST(SplitPath, Forms) {
  EXPECT_TRUE(split_path("/").empty());
  EXPECT_TRUE(split_path("").empty());
  EXPECT_EQ(split_path("/a/b/c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_path("a/b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_path("//a///b/"), (std::vector<std::string>{"a", "b"}));
}

TEST(Namespace, RootExists) {
  Namespace ns;
  EXPECT_EQ(ns.root(), kRootInode);
  ASSERT_NE(ns.inode(kRootInode), nullptr);
  EXPECT_TRUE(ns.inode(kRootInode)->is_dir);
  ASSERT_NE(ns.dir(kRootInode), nullptr);
  EXPECT_EQ(ns.dir(kRootInode)->frags.size(), 1u);
}

TEST(Namespace, MkdirAndCreate) {
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "proj", 0);
  ASSERT_NE(d, kNoInode);
  const InodeId f = ns.create(d, "main.c", 0);
  ASSERT_NE(f, kNoInode);
  EXPECT_TRUE(ns.inode(d)->is_dir);
  EXPECT_FALSE(ns.inode(f)->is_dir);
  EXPECT_EQ(ns.lookup(ns.root(), "proj"), d);
  EXPECT_EQ(ns.lookup(d, "main.c"), f);
  EXPECT_EQ(ns.lookup(d, "missing"), kNoInode);
}

TEST(Namespace, DuplicateNamesRejected) {
  Namespace ns;
  ASSERT_NE(ns.mkdir(ns.root(), "a", 0), kNoInode);
  EXPECT_EQ(ns.mkdir(ns.root(), "a", 0), kNoInode);
  EXPECT_EQ(ns.create(ns.root(), "a", 0), kNoInode);
}

TEST(Namespace, CreateUnderFileFails) {
  Namespace ns;
  const InodeId f = ns.create(ns.root(), "file", 0);
  EXPECT_EQ(ns.create(f, "x", 0), kNoInode);
  EXPECT_EQ(ns.mkdir(f, "x", 0), kNoInode);
}

TEST(Namespace, ResolvePath) {
  Namespace ns;
  const InodeId a = ns.mkdir(ns.root(), "a", 0);
  const InodeId b = ns.mkdir(a, "b", 0);
  const InodeId c = ns.create(b, "c.txt", 0);
  const Resolution r = ns.resolve("/a/b/c.txt");
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.ino, c);
  EXPECT_FALSE(r.is_dir);
  const Resolution rb = ns.resolve("/a/b");
  ASSERT_TRUE(rb.found);
  EXPECT_EQ(rb.ino, b);
  EXPECT_TRUE(rb.is_dir);
}

TEST(Namespace, ResolveRoot) {
  Namespace ns;
  const Resolution r = ns.resolve("/");
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.ino, kRootInode);
  EXPECT_TRUE(r.is_dir);
}

TEST(Namespace, ResolveMissingComponentFails) {
  Namespace ns;
  ns.mkdir(ns.root(), "a", 0);
  const Resolution r = ns.resolve("/a/nope/deeper");
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.ino, kNoInode);
  EXPECT_FALSE(r.is_dir);
}

TEST(Namespace, ReaddirListsAllFragments) {
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "dir", 0);
  for (int i = 0; i < 100; ++i)
    ASSERT_NE(ns.create(d, "f" + std::to_string(i), 0), kNoInode);
  ns.split({d, frag_t()}, 3, 0);
  const auto names = ns.readdir(d);
  EXPECT_EQ(names.size(), 100u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Namespace, RemoveFileAndEmptyDir) {
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "d", 0);
  const InodeId f = ns.create(d, "f", 0);
  (void)f;
  EXPECT_FALSE(ns.remove(ns.root(), "d"));  // not empty
  EXPECT_TRUE(ns.remove(d, "f"));
  EXPECT_TRUE(ns.remove(ns.root(), "d"));
  EXPECT_EQ(ns.lookup(ns.root(), "d"), kNoInode);
  EXPECT_FALSE(ns.remove(ns.root(), "d"));  // already gone
}

TEST(Namespace, PathOf) {
  Namespace ns;
  const InodeId a = ns.mkdir(ns.root(), "usr", 0);
  const InodeId b = ns.mkdir(a, "lib", 0);
  EXPECT_EQ(ns.path_of(ns.root()), "/");
  EXPECT_EQ(ns.path_of(a), "/usr");
  EXPECT_EQ(ns.path_of(b), "/usr/lib");
}

TEST(Namespace, SplitRedistributesDentriesByHash) {
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "big", 0);
  for (int i = 0; i < 1000; ++i) ns.create(d, "file" + std::to_string(i), 0);
  const auto kids = ns.split({d, frag_t()}, 3, 0);
  ASSERT_EQ(kids.size(), 8u);
  const Dir* dd = ns.dir(d);
  ASSERT_EQ(dd->frags.size(), 8u);
  std::size_t total = 0;
  for (const auto& [fg, df] : dd->frags) {
    total += df.dentries.size();
    for (const auto& [name, ino] : df.dentries)
      EXPECT_TRUE(fg.contains(hash_dentry_name(name)));
  }
  EXPECT_EQ(total, 1000u);
  // Lookups still work post-split.
  EXPECT_NE(ns.lookup(d, "file123"), kNoInode);
  EXPECT_NE(ns.lookup(d, "file999"), kNoInode);
}

TEST(Namespace, SplitScalesHeat) {
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "hot", 0);
  const DirFragId root_frag{d, frag_t()};
  for (int i = 0; i < 64; ++i) ns.record_op(root_frag, MetaOp::IWR, kSec);
  const auto kids = ns.split(root_frag, 2, kSec);
  ASSERT_EQ(kids.size(), 4u);
  double total = 0.0;
  for (const frag_t k : kids) total += ns.frag_pop({d, k}, MetaOp::IWR, kSec);
  EXPECT_NEAR(total, 64.0, 1e-6);
  EXPECT_NEAR(ns.frag_pop({d, kids[0]}, MetaOp::IWR, kSec), 16.0, 1e-6);
}

TEST(Namespace, SplitInheritsAuth) {
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "x", 0);
  ns.frag({d, frag_t()})->auth = 2;
  const auto kids = ns.split({d, frag_t()}, 1, 0);
  for (const frag_t k : kids) EXPECT_EQ(ns.frag({d, k})->auth, 2);
}

TEST(Namespace, SplitNonLeafFails) {
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "x", 0);
  ns.split({d, frag_t()}, 1, 0);
  // The root fragment no longer exists; splitting it again is a no-op.
  EXPECT_TRUE(ns.split({d, frag_t()}, 1, 0).empty());
}

TEST(Namespace, MergeRestoresSingleFragment) {
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "m", 0);
  for (int i = 0; i < 100; ++i) ns.create(d, "f" + std::to_string(i), 0);
  ns.split({d, frag_t()}, 3, 0);
  ASSERT_EQ(ns.dir(d)->frags.size(), 8u);
  EXPECT_TRUE(ns.merge(d, frag_t(), 0));
  ASSERT_EQ(ns.dir(d)->frags.size(), 1u);
  EXPECT_EQ(ns.dir(d)->num_entries(), 100u);
  EXPECT_NE(ns.lookup(d, "f42"), kNoInode);
  EXPECT_FALSE(ns.merge(d, frag_t(), 0));  // nothing left to merge
}

TEST(Namespace, MergePreservesHeat) {
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "m", 0);
  const auto kids = ns.split({d, frag_t()}, 2, 0);
  for (const frag_t k : kids)
    for (int i = 0; i < 10; ++i) ns.record_op({d, k}, MetaOp::IRD, kSec);
  ASSERT_TRUE(ns.merge(d, frag_t(), kSec));
  EXPECT_NEAR(ns.frag_pop({d, frag_t()}, MetaOp::IRD, kSec), 40.0, 1e-6);
}

TEST(Namespace, RecordOpBumpsFragAndAncestors) {
  Namespace ns;
  const InodeId a = ns.mkdir(ns.root(), "a", 0);
  const InodeId b = ns.mkdir(a, "b", 0);
  const DirFragId bf{b, frag_t()};
  for (int i = 0; i < 5; ++i) ns.record_op(bf, MetaOp::IWR, kSec);
  EXPECT_NEAR(ns.frag_pop(bf, MetaOp::IWR, kSec), 5.0, 1e-9);
  EXPECT_NEAR(ns.nested_pop(b, MetaOp::IWR, kSec), 5.0, 1e-9);
  EXPECT_NEAR(ns.nested_pop(a, MetaOp::IWR, kSec), 5.0, 1e-9);
  EXPECT_NEAR(ns.nested_pop(ns.root(), MetaOp::IWR, kSec), 5.0, 1e-9);
  // Sibling subtree sees nothing.
  const InodeId c = ns.mkdir(ns.root(), "c", 0);
  EXPECT_DOUBLE_EQ(ns.nested_pop(c, MetaOp::IWR, kSec), 0.0);
}

TEST(Namespace, HeatDecaysOverTime) {
  Namespace ns(DecayRate(5.0));
  const InodeId d = ns.mkdir(ns.root(), "d", 0);
  const DirFragId df{d, frag_t()};
  for (int i = 0; i < 8; ++i) ns.record_op(df, MetaOp::IRD, 0);
  EXPECT_NEAR(ns.frag_pop(df, MetaOp::IRD, 5 * kSec), 4.0, 1e-6);
  EXPECT_NEAR(ns.nested_pop(ns.root(), MetaOp::IRD, 10 * kSec), 2.0, 1e-6);
}

TEST(Namespace, SubtreeDirsAndEntries) {
  Namespace ns;
  const InodeId a = ns.mkdir(ns.root(), "a", 0);
  const InodeId b = ns.mkdir(a, "b", 0);
  const InodeId c = ns.mkdir(a, "c", 0);
  ns.create(b, "f1", 0);
  ns.create(c, "f2", 0);
  ns.create(c, "f3", 0);
  const auto dirs = ns.subtree_dirs(a);
  EXPECT_EQ(dirs.size(), 3u);  // a, b, c
  // a has dentries {b, c}; b has {f1}; c has {f2, f3}.
  EXPECT_EQ(ns.subtree_entries(a), 5u);
  EXPECT_EQ(ns.subtree_entries(b), 1u);
  const auto all = ns.subtree_dirs(ns.root());
  EXPECT_EQ(all.size(), 4u);
}

TEST(Namespace, CephfsMetaloadFormula) {
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "d", 0);
  const DirFragId df{d, frag_t()};
  ns.record_op(df, MetaOp::IRD, kSec);      // weight 1
  ns.record_op(df, MetaOp::IWR, kSec);      // weight 2
  ns.record_op(df, MetaOp::READDIR, kSec);  // weight 1
  ns.record_op(df, MetaOp::FETCH, kSec);    // weight 2
  ns.record_op(df, MetaOp::STORE, kSec);    // weight 4
  const DirFrag* f = ns.frag(df);
  ASSERT_NE(f, nullptr);
  EXPECT_NEAR(f->pop.cephfs_metaload(kSec, ns.decay_rate()), 10.0, 1e-9);
}

TEST(Namespace, FragOfPointsAtCoveringFragment) {
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "d", 0);
  ns.create(d, "hello", 0);
  ns.split({d, frag_t()}, 3, 0);
  const DirFragId id = ns.frag_of(d, "hello");
  EXPECT_EQ(id.ino, d);
  EXPECT_TRUE(id.frag.contains(hash_dentry_name("hello")));
  ASSERT_NE(ns.frag(id), nullptr);
  EXPECT_EQ(ns.frag(id)->dentries.count("hello"), 1u);
}

// Parameterized sweep: split / merge round-trips preserve all dentries for
// several directory sizes and split widths.
class SplitMergeRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitMergeRoundTrip, PreservesDentries) {
  const auto [entries, bits] = GetParam();
  Namespace ns;
  const InodeId d = ns.mkdir(ns.root(), "dir", 0);
  for (int i = 0; i < entries; ++i)
    ASSERT_NE(ns.create(d, "n" + std::to_string(i), 0), kNoInode);
  ns.split({d, frag_t()}, static_cast<std::uint8_t>(bits), 0);
  EXPECT_EQ(ns.dir(d)->frags.size(), 1u << bits);
  EXPECT_EQ(ns.dir(d)->num_entries(), static_cast<std::size_t>(entries));
  ASSERT_TRUE(ns.merge(d, frag_t(), 0));
  EXPECT_EQ(ns.dir(d)->num_entries(), static_cast<std::size_t>(entries));
  for (int i = 0; i < entries; ++i)
    EXPECT_NE(ns.lookup(d, "n" + std::to_string(i)), kNoInode);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitMergeRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 10, 257),
                       ::testing::Values(1, 2, 3, 5)));

}  // namespace
}  // namespace mantle::mds

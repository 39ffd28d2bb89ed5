#include "store/object_store.hpp"

#include <gtest/gtest.h>

namespace mantle::store {
namespace {

TEST(ObjectStore, WriteThenRead) {
  ObjectStore os;
  EXPECT_TRUE(os.write_full("obj.a", "hello").ok);
  std::string out;
  const OpResult r = os.read("obj.a", &out);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(out, "hello");
  EXPECT_GT(r.latency, 0u);
}

TEST(ObjectStore, ReadMissingFails) {
  ObjectStore os;
  std::string out;
  EXPECT_FALSE(os.read("nope", &out).ok);
}

TEST(ObjectStore, AppendConcatenates) {
  ObjectStore os;
  os.append("log", "aa");
  os.append("log", "bb");
  std::string out;
  ASSERT_TRUE(os.read("log", &out).ok);
  EXPECT_EQ(out, "aabb");
}

TEST(ObjectStore, OverwriteReplaces) {
  ObjectStore os;
  os.write_full("o", "v1");
  os.write_full("o", "v2");
  std::string out;
  ASSERT_TRUE(os.read("o", &out).ok);
  EXPECT_EQ(out, "v2");
}

TEST(ObjectStore, OmapSetGetRemove) {
  ObjectStore os;
  os.omap_set("dirfrag.1", "fileA", "ino=5");
  os.omap_set("dirfrag.1", "fileB", "ino=6");
  std::string v;
  ASSERT_TRUE(os.omap_get("dirfrag.1", "fileA", &v).ok);
  EXPECT_EQ(v, "ino=5");
  EXPECT_TRUE(os.omap_remove("dirfrag.1", "fileA").ok);
  EXPECT_FALSE(os.omap_get("dirfrag.1", "fileA", &v).ok);
  EXPECT_TRUE(os.omap_get("dirfrag.1", "fileB", &v).ok);
}

TEST(ObjectStore, OmapListSortedByKey) {
  ObjectStore os;
  os.omap_set("d", "z", "1");
  os.omap_set("d", "a", "2");
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(os.omap_list("d", &all).ok);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(all[1].first, "z");
}

TEST(ObjectStore, RemoveDeletesObject) {
  ObjectStore os;
  os.write_full("o", "x");
  EXPECT_TRUE(os.remove("o").ok);
  EXPECT_FALSE(os.exists("o"));
  EXPECT_FALSE(os.remove("o").ok);  // second remove reports missing
}

TEST(ObjectStore, StatsAccumulate) {
  ObjectStore os;
  os.write_full("a", "12345");
  std::string out;
  os.read("a", &out);
  os.omap_set("a", "k", "vv");
  const StoreStats& st = os.stats();
  EXPECT_EQ(st.writes, 1u);
  EXPECT_EQ(st.reads, 1u);
  EXPECT_EQ(st.omap_writes, 1u);
  EXPECT_EQ(st.bytes_written, 5u + 3u);
  EXPECT_EQ(st.bytes_read, 5u);
}

TEST(LatencyModel, CostGrowsWithSize) {
  const LatencyModel m;
  EXPECT_GT(m.write_cost(1 << 20, nullptr), m.write_cost(0, nullptr));
  EXPECT_GT(m.read_cost(1 << 20, nullptr), m.read_cost(0, nullptr));
  // Writes cost more than reads at equal size (replication ack).
  EXPECT_GT(m.write_cost(4096, nullptr), m.read_cost(4096, nullptr));
}

TEST(LatencyModel, DeterministicWithoutRng) {
  const LatencyModel m;
  EXPECT_EQ(m.read_cost(512, nullptr), m.read_cost(512, nullptr));
}

TEST(LatencyModel, JitterStaysBounded) {
  const LatencyModel m;
  Rng rng(42);
  const Time base = m.read_cost(1024, nullptr);
  for (int i = 0; i < 200; ++i) {
    const Time t = m.read_cost(1024, &rng);
    EXPECT_GE(t, static_cast<Time>(static_cast<double>(base) * 0.89));
    EXPECT_LE(t, static_cast<Time>(static_cast<double>(base) * 1.11));
  }
}

TEST(Journal, AppendAssignsSequenceNumbers) {
  ObjectStore os;
  Journal j(os, "mds0.journal");
  std::uint64_t s0 = 99;
  std::uint64_t s1 = 99;
  j.append("EExport subtree=5", &s0);
  j.append("EImport subtree=5", &s1);
  EXPECT_EQ(s0, 0u);
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(j.live_entries(), 2u);
  EXPECT_EQ(j.next_seq(), 2u);
}

TEST(Journal, TrimDropsOldEntries) {
  ObjectStore os;
  Journal j(os, "mds0.journal");
  for (int i = 0; i < 5; ++i) j.append("ev" + std::to_string(i));
  j.trim(3);
  EXPECT_EQ(j.live_entries(), 2u);
  EXPECT_EQ(j.trimmed_to(), 3u);
  const auto ents = j.entries();
  ASSERT_EQ(ents.size(), 2u);
  EXPECT_EQ(ents[0].first, 3u);
  EXPECT_EQ(ents[0].second, "ev3");
}

TEST(Journal, BacksOntoObjectStore) {
  ObjectStore os;
  Journal j(os, "mds1.journal");
  j.append("abc");
  j.append("def");
  std::string raw;
  ASSERT_TRUE(os.read("mds1.journal", &raw).ok);
  EXPECT_EQ(raw, "abcdef");
}

TEST(Journal, ReplayAfterTrimSeesOnlyLiveEntries) {
  // The recovery path replays entries() after a crash: trimmed events must
  // not reappear, and the survivors keep their original sequence numbers.
  ObjectStore os;
  Journal j(os, "mds0.journal");
  for (int i = 0; i < 10; ++i) j.append("EExport frag=" + std::to_string(i));
  j.trim(6);
  j.append("EImportStart frag=10");  // post-trim appends keep counting up
  std::uint64_t seq = 0;
  j.append("EImportCommit frag=10", &seq);
  EXPECT_EQ(seq, 11u);

  const auto replay = j.entries();
  ASSERT_EQ(replay.size(), 6u);  // seqs 6..9 plus the two new events
  EXPECT_EQ(replay.front().first, 6u);
  EXPECT_EQ(replay.front().second, "EExport frag=6");
  EXPECT_EQ(replay.back().first, 11u);
  EXPECT_EQ(replay.back().second, "EImportCommit frag=10");
  for (const auto& [s, ev] : replay) EXPECT_GE(s, j.trimmed_to());
}

TEST(Journal, TrimIsIdempotentAndMonotonic) {
  ObjectStore os;
  Journal j(os, "mds0.journal");
  for (int i = 0; i < 4; ++i) j.append("e" + std::to_string(i));
  j.trim(3);
  j.trim(3);  // repeat: no-op
  EXPECT_EQ(j.live_entries(), 1u);
  EXPECT_EQ(j.trimmed_to(), 3u);
  j.trim(1);  // going backwards must not resurrect entries
  EXPECT_EQ(j.live_entries(), 1u);
  EXPECT_EQ(j.trimmed_to(), 3u);
}

TEST(Journal, TrimToEndEmptiesReplaySet) {
  // The cluster trims a dead rank's journal to next_seq() after takeover:
  // a later restart of that rank replays nothing.
  ObjectStore os;
  Journal j(os, "mds2.journal");
  for (int i = 0; i < 7; ++i) j.append("ETakeoverish" + std::to_string(i));
  j.trim(j.next_seq());
  EXPECT_EQ(j.live_entries(), 0u);
  EXPECT_TRUE(j.entries().empty());
  // The journal is still usable afterwards.
  std::uint64_t seq = 0;
  j.append("ERestart", &seq);
  EXPECT_EQ(seq, 7u);
  EXPECT_EQ(j.live_entries(), 1u);
}

TEST(ObjectStore, FaultHookFailsOpWithoutMutating) {
  ObjectStore os;
  ASSERT_TRUE(os.write_full("keep", "v1").ok);
  os.set_fault_hook([](StoreOp, const std::string&) { return true; });
  EXPECT_FALSE(os.write_full("keep", "v2").ok);
  EXPECT_FALSE(os.remove("keep").ok);
  os.set_fault_hook(nullptr);
  std::string data;
  ASSERT_TRUE(os.read("keep", &data).ok);
  EXPECT_EQ(data, "v1") << "faulted ops must leave state untouched";
  EXPECT_EQ(os.stats().faults_injected, 2u);
}

TEST(ObjectStore, FaultHookSeesOpKindAndOid) {
  ObjectStore os;
  std::vector<std::pair<StoreOp, std::string>> seen;
  os.set_fault_hook([&](StoreOp op, const std::string& oid) {
    seen.emplace_back(op, oid);
    return false;  // observe only
  });
  os.write_full("a", "x");
  std::string tmp;
  os.read("a", &tmp);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, StoreOp::Write);
  EXPECT_EQ(seen[0].second, "a");
  EXPECT_EQ(seen[1].first, StoreOp::Read);
}

}  // namespace
}  // namespace mantle::store

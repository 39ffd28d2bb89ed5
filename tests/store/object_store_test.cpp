#include "store/object_store.hpp"

#include <gtest/gtest.h>

namespace mantle::store {
namespace {

TEST(ObjectStore, WriteThenRead) {
  ObjectStore os;
  os.write_full("obj.a", "hello");
  std::string out;
  EXPECT_TRUE(os.read("obj.a", &out));
  EXPECT_EQ(out, "hello");
}

TEST(ObjectStore, ReadMissingFails) {
  ObjectStore os;
  std::string out;
  EXPECT_FALSE(os.read("nope", &out));
}

TEST(ObjectStore, OverwriteReplaces) {
  ObjectStore os;
  os.write_full("o", "v1");
  os.write_full("o", "v2");
  std::string out;
  ASSERT_TRUE(os.read("o", &out));
  EXPECT_EQ(out, "v2");
}

TEST(Journal, AppendAssignsSequenceNumbers) {
  Journal j;
  EXPECT_EQ(j.append("EExport subtree=5"), 0u);
  EXPECT_EQ(j.append("EImport subtree=5"), 1u);
  EXPECT_EQ(j.live_entries(), 2u);
  EXPECT_EQ(j.next_seq(), 2u);
}

TEST(Journal, TrimDropsOldEntries) {
  Journal j;
  for (int i = 0; i < 5; ++i) j.append("ev" + std::to_string(i));
  j.trim(3);
  EXPECT_EQ(j.live_entries(), 2u);
  EXPECT_EQ(j.trimmed_to(), 3u);
  const auto ents = j.entries();
  ASSERT_EQ(ents.size(), 2u);
  EXPECT_EQ(ents[0].first, 3u);
  EXPECT_EQ(ents[0].second, "ev3");
}

TEST(Journal, ReplayAfterTrimSeesOnlyLiveEntries) {
  // The recovery path replays entries() after a crash: trimmed events must
  // not reappear, and the survivors keep their original sequence numbers.
  Journal j;
  for (int i = 0; i < 10; ++i) j.append("EExport frag=" + std::to_string(i));
  j.trim(6);
  j.append("EImportStart frag=10");  // post-trim appends keep counting up
  EXPECT_EQ(j.append("EImportCommit frag=10"), 11u);

  const auto replay = j.entries();
  ASSERT_EQ(replay.size(), 6u);  // seqs 6..9 plus the two new events
  EXPECT_EQ(replay.front().first, 6u);
  EXPECT_EQ(replay.front().second, "EExport frag=6");
  EXPECT_EQ(replay.back().first, 11u);
  EXPECT_EQ(replay.back().second, "EImportCommit frag=10");
  for (const auto& [s, ev] : replay) EXPECT_GE(s, j.trimmed_to());
}

TEST(Journal, TrimIsIdempotentAndMonotonic) {
  Journal j;
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
  Journal j;
  for (int i = 0; i < 7; ++i) j.append("ETakeoverish" + std::to_string(i));
  j.trim(j.next_seq());
  EXPECT_EQ(j.live_entries(), 0u);
  EXPECT_TRUE(j.entries().empty());
  // The journal is still usable afterwards.
  EXPECT_EQ(j.append("ERestart"), 7u);
  EXPECT_EQ(j.live_entries(), 1u);
}

}  // namespace
}  // namespace mantle::store

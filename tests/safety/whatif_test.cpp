#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/mantle.hpp"
#include "obs/provenance.hpp"
#include "safety/whatif.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

/// What-if replay: the recorded hook inputs of a real run fed back
/// through a candidate policy. The identity property (same policy =>
/// zero diffs) is the correctness anchor — it proves the replay
/// reconstructs the exact view the live balancer saw; divergent
/// candidates must diff deterministically.

namespace mantle::safety {
namespace {

std::vector<obs::DecisionRecord> record_run(std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 3;
  cfg.cluster.seed = seed;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  cfg.max_time = 2 * kMinute;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all([](int) {
    return std::make_unique<core::MantleBalancer>(core::scripts::original());
  });
  for (int c = 0; c < 3; ++c)
    s.add_client(workloads::make_shared_create_workload(
        c, "/shared", /*files=*/4000, /*think=*/200));
  s.run();
  return s.cluster().provenance().records();
}

TEST(Whatif, IdenticalPolicyReplaysWithZeroDiffs) {
  const auto records = record_run(7);
  ASSERT_FALSE(records.empty());
  const WhatifResult res = whatif_replay(records, core::scripts::original());
  EXPECT_EQ(res.decisions, records.size());
  EXPECT_EQ(res.replayed, records.size());
  EXPECT_EQ(res.skipped_truncated, 0u);
  EXPECT_EQ(res.diff_count(), 0u) << res.to_table();
  EXPECT_TRUE(res.diffs.empty());
}

TEST(Whatif, IdentityHoldsThroughTheDumpFormat) {
  // The CLI path parses a dump instead of consuming live records; the
  // %.17g round-trip must preserve exact equality of the replay.
  const auto records = record_run(7);
  obs::ProvenanceRecorder rec(records.size());
  for (const auto& r : records) ASSERT_TRUE(rec.record(r));
  const auto parsed = obs::parse_provenance_json(rec.to_json());
  ASSERT_EQ(parsed.size(), records.size());
  const WhatifResult res = whatif_replay(parsed, core::scripts::original());
  EXPECT_EQ(res.diff_count(), 0u) << res.to_table();
}

TEST(Whatif, DivergentPolicyDiffsDeterministically) {
  // A hand-built decision where the recorded balancer held but a
  // greedy-spill candidate (when: my load > .01 and the idle right
  // neighbour's load < .01) clearly fires: the diff must be non-empty
  // and byte-stable across replays.
  obs::DecisionRecord rec;
  rec.at = 10 * kSec;
  rec.rank = 0;
  rec.span = 5;
  rec.policy = "mantle";
  rec.min_load = 0.01;
  rec.mdss = {{50.0, 60.0, 90.0, 10.0, 4.0, 500.0},
              {0.0, 0.0, 5.0, 1.0, 0.0, 10.0}};
  rec.loads = {60.0, 1.0};
  rec.alive = {1, 1};
  rec.total_load = 61.0;
  rec.go = false;  // the recorded policy decided to hold
  rec.digest = obs::input_digest(rec);

  const std::vector<obs::DecisionRecord> records{rec};
  const WhatifResult a =
      whatif_replay(records, core::scripts::greedy_spill());
  EXPECT_GT(a.diff_count(), 0u);
  EXPECT_EQ(a.go_flips, 1u);
  ASSERT_EQ(a.diffs.size(), 1u);
  EXPECT_EQ(a.diffs[0].field, "go");
  EXPECT_EQ(a.diffs[0].recorded, "hold");
  EXPECT_EQ(a.diffs[0].replayed, "go");
  EXPECT_EQ(a.diffs[0].digest, rec.digest);

  const WhatifResult b =
      whatif_replay(records, core::scripts::greedy_spill());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_table(), b.to_table());
}

TEST(Whatif, TruncatedRecordsAreSkippedNotReplayed) {
  obs::DecisionRecord rec;
  rec.at = kSec;
  rec.rank = 0;
  rec.min_load = 0.01;
  rec.total_load = 5.0;
  rec.truncated = true;  // per-rank tables elided at capture time
  const WhatifResult res =
      whatif_replay({rec}, core::scripts::original());
  EXPECT_EQ(res.decisions, 1u);
  EXPECT_EQ(res.replayed, 0u);
  EXPECT_EQ(res.skipped_truncated, 1u);
  EXPECT_EQ(res.diff_count(), 0u);
}

TEST(Whatif, JsonAndTableAreWellFormed) {
  const WhatifResult empty =
      whatif_replay({}, core::scripts::original());
  EXPECT_EQ(empty.to_json(),
            "{\"summary\":{\"decisions\":0,\"diff_count\":0,\"go_flips\":0,"
            "\"hook_errors\":0,\"replayed\":0,\"selector_diffs\":0,"
            "\"skipped_truncated\":0,\"target_diffs\":0},\"diffs\":[]}");
  EXPECT_NE(empty.to_table().find("0 decision(s)"), std::string::npos);
}

}  // namespace
}  // namespace mantle::safety

#include "safety/shadow.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace mantle::safety {
namespace {

using obs::EventKind;
using obs::TraceEvents;

/// A synthetic recording of a hotspot run: rank 0's load grows by 10 per
/// tick while ranks 1..n-1 idle, and every rank runs one balancer tick
/// per interval. This is the healthy-workload shape every reasonable
/// policy must survive: the growth is organic (monotone heartbeats, no
/// recorded migrations), so any oscillation on the shadow timeline is
/// the candidate's own doing.
TraceEvents hotspot_trace(int ticks = 20, int nranks = 3) {
  obs::TraceSink sink;
  double hot = 0.0;
  for (int k = 0; k < ticks; ++k) {
    const Time t = static_cast<Time>(k + 1) * 1'000'000;
    hot += 10.0;
    sink.event(t, EventKind::HeartbeatSent, 0, -1, {},
               {{"load", hot}, {"cpu", 35.0}});
    for (int r = 1; r < nranks; ++r)
      sink.event(t, EventKind::HeartbeatSent, r, -1, {},
                 {{"load", 0.0}, {"cpu", 5.0}});
    for (int r = 0; r < nranks; ++r)
      sink.event(t + 1000, EventKind::WhenDecision, r, -1, {},
                 {{"go", 0.0}});
  }
  return sink.events();
}

core::MantlePolicy ping_pong_policy() {
  core::MantlePolicy p;
  p.mdsload = "MDSs[i][\"all\"]";
  p.when = "return true";
  p.where =
      "for j = 1, #MDSs do targets[j] = 0 end\n"
      "local peer = whoami == 1 and 2 or 1\n"
      "targets[peer] = MDSs[whoami][\"all\"] + 10\n";
  p.howmuch = "{\"big_first\"}";
  return p;
}

core::MantlePolicy thrash_policy() {
  core::MantlePolicy p;
  p.mdsload = "MDSs[i][\"all\"]";
  p.when = "return true";  // go every tick...
  p.where = "for j = 1, #MDSs do targets[j] = 0 end";  // ...ship nothing
  p.howmuch = "{\"big_first\"}";
  return p;
}

TEST(ShadowTest, PaperPoliciesAccepted) {
  const TraceEvents rec = hotspot_trace();
  for (const char* name :
       {"original", "greedy", "greedy_even", "fill_spill", "adaptable"}) {
    core::MantlePolicy p;
    ASSERT_EQ(load_policy(name, p), "") << name;
    const ShadowVerdict v = shadow_evaluate(rec, p);
    EXPECT_TRUE(v.accepted) << name << ": " << v.reason;
    EXPECT_EQ(v.ticks_replayed, 60u) << name;  // 20 intervals x 3 ranks
    EXPECT_EQ(v.num_ranks, 3) << name;
  }
}

TEST(ShadowTest, PingPongPolicyRejected) {
  // Well-formed but harmful: validation passes, and only the replay
  // rejects the policy.
  EXPECT_EQ(core::validate_policy(ping_pong_policy()), "");
  const ShadowVerdict v = shadow_evaluate(hotspot_trace(), ping_pong_policy());
  EXPECT_FALSE(v.accepted);
  EXPECT_NE(v.reason.find("ping-pong"), std::string::npos) << v.reason;
  EXPECT_GE(v.report.count("ping-pong"), 1u);
}

TEST(ShadowTest, ThrashPolicyRejected) {
  const ShadowVerdict v = shadow_evaluate(hotspot_trace(), thrash_policy());
  EXPECT_FALSE(v.accepted);
  EXPECT_NE(v.reason.find("thrash"), std::string::npos) << v.reason;
}

TEST(ShadowTest, FillSpillKeepsEachRanksOverloadStreak) {
  // Listing 3 spills after three straight overloaded ticks of the same
  // rank, counted in that rank's WRstate. Here an overloaded rank 0 (cpu
  // above the 48% threshold) and a cool rank 1 tick in turn. Each rank's
  // sandbox keeps its own streak, so rank 0 spills on its third tick; a
  // sandbox shared by both ranks would see the streak reset by every
  // rank-1 tick and never spill.
  obs::TraceSink sink;
  double hot = 0.0;
  for (int k = 0; k < 10; ++k) {
    const Time t = static_cast<Time>(k + 1) * 1'000'000;
    hot += 10.0;
    sink.event(t, EventKind::HeartbeatSent, 0, -1, {},
               {{"load", hot}, {"cpu", 60.0}});
    sink.event(t, EventKind::HeartbeatSent, 1, -1, {},
               {{"load", 0.0}, {"cpu", 5.0}});
    sink.event(t + 1000, EventKind::WhenDecision, 0, -1, {}, {{"go", 0.0}});
    sink.event(t + 2000, EventKind::WhenDecision, 1, -1, {}, {{"go", 0.0}});
  }
  core::MantlePolicy p;
  ASSERT_EQ(load_policy("fill_spill", p), "");
  const ShadowVerdict v = shadow_evaluate(sink.events(), p);
  EXPECT_TRUE(v.accepted) << v.reason;
  EXPECT_EQ(v.ticks_replayed, 20u);
  EXPECT_GT(v.exports, 0u);
}

TEST(ShadowTest, InputDependentLoopRejectedOnBudget) {
  // Loops unconditionally once replayed — the budget backstop must
  // convert that into a rejection rather than a hang.
  core::MantlePolicy p;
  p.when = "while total > -1 do end\nreturn false";
  ShadowConfig cfg;
  cfg.budget = 1 << 12;  // keep the test fast
  const ShadowVerdict v = shadow_evaluate(hotspot_trace(), p, cfg);
  EXPECT_FALSE(v.accepted);
  EXPECT_NE(v.reason.find("budget"), std::string::npos) << v.reason;
  EXPECT_GT(v.budget_exhaustions, 0u);
}

TEST(ShadowTest, EmptyRecordingRejected) {
  core::MantlePolicy p;
  ASSERT_EQ(load_policy("original", p), "");
  const ShadowVerdict v = shadow_evaluate({}, p);
  EXPECT_FALSE(v.accepted);
  EXPECT_NE(v.reason.find("no balancer ticks"), std::string::npos) << v.reason;
}

TEST(ShadowTest, VerdictJsonDeterministic) {
  const TraceEvents rec = hotspot_trace();
  const ShadowVerdict a = shadow_evaluate(rec, ping_pong_policy());
  const ShadowVerdict b = shadow_evaluate(rec, ping_pong_policy());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_json().rfind("{\"accepted\":", 0), 0u);
}

TEST(ShadowTest, LoadPolicyParsesSectionFiles) {
  const std::string path = testing::TempDir() + "/shadow_test.policy";
  {
    std::ofstream out(path);
    out << "-- comment before the first section is fine\n"
        << "[metaload]\nIRD + IWR\n"
        << "[when]\nreturn true\n"
        << "[where]\ntargets[1] = 0\n";
  }
  core::MantlePolicy p;
  ASSERT_EQ(load_policy(path, p), "");
  EXPECT_EQ(p.metaload, "IRD + IWR\n");
  EXPECT_EQ(p.when, "return true\n");
  EXPECT_EQ(p.where, "targets[1] = 0\n");
  EXPECT_TRUE(p.mdsload.empty());

  {
    std::ofstream out(path);
    out << "[bogus]\nx\n";
  }
  EXPECT_NE(load_policy(path, p).find("unknown policy section"),
            std::string::npos);

  {
    std::ofstream out(path);
    out << "just some text, no section\n";
  }
  EXPECT_NE(load_policy(path, p).find("must start with a [hook] section"),
            std::string::npos);

  EXPECT_NE(load_policy("/nonexistent/policy/file", p)
                .find("cannot open policy file"),
            std::string::npos);
}

}  // namespace
}  // namespace mantle::safety

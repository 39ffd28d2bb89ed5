#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "balancers/builtin.hpp"
#include "fault/fault.hpp"
#include "obs/analyze.hpp"
#include "obs/profile.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

/// The observability layer's reproducibility contract: timestamps come
/// from the simulated clock, span ids are allocated in dispatch order
/// and exporters use fixed formatting, so two runs with identical
/// (seed, config) — including one with fault injection — must serialize
/// to byte-identical metrics snapshots, event timelines (plain and
/// Perfetto) and analysis reports.

namespace mantle::obs {
namespace {

struct ObsDump {
  std::string prom;
  std::string metrics_json;
  std::string trace_json;
  std::string perfetto_json;
  std::string analysis_json;
  std::vector<std::string> counter_names;
  std::size_t trace_events = 0;
  std::uint64_t dropped = 0;
};

ObsDump snapshot_of(sim::Scenario& s) {
  ObsDump d;
  d.prom = s.cluster().metrics().to_prometheus();
  d.metrics_json = s.cluster().metrics().to_json();
  d.trace_json = s.cluster().trace().to_json();
  d.perfetto_json = s.cluster().trace().to_perfetto();
  const auto counters = parse_metrics_counters(d.metrics_json);
  d.analysis_json =
      analyze(s.cluster().trace().events(), {}, &counters).to_json();
  d.counter_names = s.cluster().metrics().counter_names();
  d.trace_events = s.cluster().trace().size();
  d.dropped = s.cluster().trace().dropped_events();
  return d;
}

ObsDump run_plain(std::uint64_t seed, std::size_t trace_capacity = 0) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 3;
  cfg.cluster.seed = seed;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  if (trace_capacity > 0) cfg.cluster.trace_capacity = trace_capacity;
  cfg.max_time = 2 * kMinute;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  for (int c = 0; c < 3; ++c)
    s.add_client(workloads::make_shared_create_workload(
        c, "/shared", /*files=*/4000, /*think=*/200));
  s.run();
  return snapshot_of(s);
}

ObsDump run_faulty(std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 3;
  cfg.cluster.seed = seed;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  cfg.retry.timeout = 2 * kSec;
  cfg.max_time = 3 * kMinute;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  for (int c = 0; c < 3; ++c)
    s.add_client(workloads::make_shared_create_workload(
        c, "/shared", /*files=*/4000, /*think=*/200));
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.crashes.push_back({kSec, 1});
  plan.restarts.push_back({2 * kSec, 1});
  plan.hb_drop_prob = 0.05;
  plan.hb_duplicate_prob = 0.02;
  fault::FaultInjector inj(plan);
  inj.arm(s.cluster());
  s.run();
  return snapshot_of(s);
}

TEST(ObsDeterminism, PlainRunSnapshotsAreByteIdentical) {
  const ObsDump a = run_plain(7);
  const ObsDump b = run_plain(7);
  // The instrumentation must actually have fired, or byte-equality of
  // empty snapshots would prove nothing.
  EXPECT_GT(a.trace_events, 0u);
  EXPECT_NE(a.prom.find("mds_heartbeats_sent_total"), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"kind\":\"when\""), std::string::npos);
  // Spans must actually be threaded, or byte-equality of span-free
  // timelines would not cover the causal layer.
  EXPECT_NE(a.trace_json.find("\"span\":"), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"parent\":"), std::string::npos);
  EXPECT_NE(a.perfetto_json.find("\"cat\":\"migration\""), std::string::npos);
  EXPECT_EQ(a.prom, b.prom);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.perfetto_json, b.perfetto_json);
  EXPECT_EQ(a.analysis_json, b.analysis_json);
}

TEST(ObsDeterminism, FaultInjectedRunSnapshotsAreByteIdentical) {
  const ObsDump a = run_faulty(11);
  const ObsDump b = run_faulty(11);
  EXPECT_NE(a.trace_json.find("\"kind\":\"crash\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"kind\":\"fault-injected\""),
            std::string::npos);
  EXPECT_NE(a.prom.find("faults_injected_total"), std::string::npos);
  EXPECT_EQ(a.prom, b.prom);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.perfetto_json, b.perfetto_json);
  EXPECT_EQ(a.analysis_json, b.analysis_json);
}

TEST(ObsDeterminism, DifferentSeedsDiverge) {
  // Sanity check on the check itself: the snapshot is sensitive to the
  // seed, so byte-equality above is not vacuous.
  const ObsDump a = run_plain(7);
  const ObsDump c = run_plain(8);
  EXPECT_NE(a.trace_json, c.trace_json);
  EXPECT_NE(a.perfetto_json, c.perfetto_json);
}

TEST(ObsDeterminism, TruncatedTimelinesAreByteIdentical) {
  // Overflow accounting: with a tiny injected bound the sink drops the
  // tail deterministically — both runs drop the same count and the
  // truncated timeline still serializes byte-for-byte.
  const ObsDump a = run_plain(7, /*trace_capacity=*/32);
  const ObsDump b = run_plain(7, /*trace_capacity=*/32);
  EXPECT_EQ(a.trace_events, 32u);
  EXPECT_GT(a.dropped, 0u);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.perfetto_json, b.perfetto_json);
  EXPECT_EQ(a.analysis_json, b.analysis_json);
  // The truncated timeline is a strict prefix of the unbounded one.
  const ObsDump full = run_plain(7);
  EXPECT_EQ(full.dropped, 0u);
  EXPECT_GT(full.trace_events, a.trace_events);
  EXPECT_EQ(full.trace_json.compare(1, a.trace_json.size() - 2,
                                    a.trace_json, 1,
                                    a.trace_json.size() - 2),
            0)
      << "bounded timeline is not a prefix of the unbounded one";
}

TEST(ObsLint, EveryRegisteredCounterEndsInTotal) {
  // Prometheus naming convention, enforced over a fully instrumented
  // run: the faulty scenario touches request, heartbeat, balancer,
  // migration, dirfrag, dead-letter, recovery, fault and provenance
  // counters.
  const ObsDump d = run_faulty(11);
  ASSERT_GT(d.counter_names.size(), 10u);
  constexpr const char* kSuffix = "_total";
  bool saw_provenance = false;
  for (const std::string& name : d.counter_names) {
    ASSERT_GE(name.size(), std::string(kSuffix).size());
    EXPECT_EQ(name.substr(name.size() - std::string(kSuffix).size()), kSuffix)
        << "counter '" << name << "' violates the _total suffix convention";
    if (name.rfind("mantle_provenance_", 0) == 0) saw_provenance = true;
  }
  EXPECT_TRUE(saw_provenance)
      << "provenance counters missing from an instrumented run";
}

TEST(ObsLint, EveryEventKindHasAKebabName) {
  // Every kind through kLastEventKind must render a real name (the "?"
  // fallback would leak into dumps) in kebab-case, and kLastEventKind
  // must be the last kind: the dump parser stops there, so a kind
  // appended past it would be dropped from parsed dumps.
  for (int k = 0; k <= static_cast<int>(kLastEventKind); ++k) {
    const std::string name = event_kind_name(static_cast<EventKind>(k));
    EXPECT_NE(name, "?") << "event kind " << k << " has no name";
    for (const char c : name)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '-')
          << "event kind name '" << name << "' is not kebab-case";
  }
  EXPECT_STREQ(event_kind_name(static_cast<EventKind>(
                   static_cast<int>(kLastEventKind) + 1)),
               "?");
}

TEST(ObsLint, ProfilePhaseNamesFollowConventions) {
  // Phase names are kebab-case; their derived metric names carry the
  // mantle_profile_ prefix and the _total counter suffix.
  for (int p = 0; p < kNumProfilePhases; ++p) {
    const auto phase = static_cast<ProfilePhase>(p);
    const std::string name = profile_phase_name(phase);
    EXPECT_FALSE(name.empty());
    for (const char c : name)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '-')
          << "phase name '" << name << "' is not kebab-case";
    const std::string metric = profile_metric_name(phase);
    EXPECT_EQ(metric.rfind("mantle_profile_", 0), 0u) << metric;
    constexpr const char* kSuffix = "_total";
    ASSERT_GE(metric.size(), std::string(kSuffix).size());
    EXPECT_EQ(metric.substr(metric.size() - std::string(kSuffix).size()),
              kSuffix)
        << "profile metric '" << metric << "' violates the counter suffix";
  }
}

}  // namespace
}  // namespace mantle::obs

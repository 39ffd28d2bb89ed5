#include "obs/analyze.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "balancers/builtin.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

/// The trace-analytics engine: per-tick series, run summary, the four
/// anomaly detectors (each exercised by a synthetic timeline built to
/// trip exactly it), the dump parsers, and the causal-span threading the
/// analyzer depends on.

namespace mantle::obs {
namespace {

TraceEvent make(Time at, EventKind kind, int rank = -1, int peer = -1,
                std::string detail = {},
                std::vector<std::pair<std::string, double>> fields = {},
                SpanId span = kNoSpan, SpanId parent = kNoSpan) {
  TraceEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.rank = rank;
  ev.peer = peer;
  ev.span = span;
  ev.parent = parent;
  ev.detail = std::move(detail);
  ev.fields = std::move(fields);
  return ev;
}

// ---------------------------------------------------------------------------
// Detectors, one synthetic timeline each
// ---------------------------------------------------------------------------

TEST(Detectors, PingPongTripsOnSustainedBouncing) {
  AnalyzeConfig cfg;
  cfg.tick = kSec;
  // One subtree bouncing 0<->1 every 100 ms: commit then immediate
  // re-export back, kPingPongMinReversals times over.
  std::vector<TraceEvent> evs;
  Time t = 0;
  int from = 0;
  int to = 1;
  SpanId span = 1;
  for (std::uint64_t i = 0; i <= kPingPongMinReversals; ++i) {
    evs.push_back(make(t, EventKind::ExportStart, from, to, "1.0x00000000/0",
                       {{"entries", 10.0}}, span));
    evs.push_back(make(t + 50 * kMsec, EventKind::ExportCommit, from, to,
                       "1.0x00000000/0", {{"entries", 10.0}}, span));
    t += 100 * kMsec;
    std::swap(from, to);
    ++span;
  }
  const Report rep = analyze(evs, cfg);
  EXPECT_EQ(rep.count("ping-pong"), 1u);  // one finding per subtree
  EXPECT_EQ(rep.tripped(), 1);
}

TEST(Detectors, SingleReversalIsTolerated) {
  // A->B, then B->A once (load legitimately moved back): no finding.
  std::vector<TraceEvent> evs;
  evs.push_back(make(0, EventKind::ExportStart, 0, 1, "1.0x00000000/0", {}, 1));
  evs.push_back(
      make(10 * kMsec, EventKind::ExportCommit, 0, 1, "1.0x00000000/0", {}, 1));
  evs.push_back(
      make(20 * kMsec, EventKind::ExportStart, 1, 0, "1.0x00000000/0", {}, 2));
  evs.push_back(
      make(30 * kMsec, EventKind::ExportCommit, 1, 0, "1.0x00000000/0", {}, 2));
  const Report rep = analyze(evs);
  EXPECT_EQ(rep.count("ping-pong"), 0u);
  EXPECT_EQ(rep.tripped(), 0);
}

TEST(Detectors, ThrashTripsOnGoTicksShippingNothing) {
  AnalyzeConfig cfg;
  // Rank 0 decides to migrate every tick but the where hook ships zero.
  std::vector<TraceEvent> evs;
  for (std::uint64_t i = 0; i < kThrashMinRun; ++i) {
    const Time t = i * cfg.tick;
    const SpanId span = static_cast<SpanId>(i + 1);
    evs.push_back(make(t, EventKind::WhenDecision, 0, -1, "",
                       {{"go", 1.0}, {"my_load", 5.0}}, span));
    evs.push_back(make(t + 1, EventKind::WhereDecision, 0, -1, "",
                       {{"targets_total", 0.0}, {"shipped_total", 0.0}},
                       span));
  }
  const Report rep = analyze(evs, cfg);
  EXPECT_EQ(rep.count("thrash"), 1u);
  EXPECT_EQ(rep.tripped(), 1);

  // Shipping load on one of the ticks resets the run: no finding.
  evs[3].fields = {{"targets_total", 1.0}, {"shipped_total", 2.5}};
  const Report ok = analyze(evs, cfg);
  EXPECT_EQ(ok.count("thrash"), 0u);
}

TEST(Detectors, StuckExportTripsWhenNeverResolved) {
  std::vector<TraceEvent> evs;
  evs.push_back(make(kSec, EventKind::ExportStart, 0, 1, "1.0x00000000/0",
                     {{"entries", 5.0}}, 7));
  // A second migration that resolves normally must NOT be reported.
  evs.push_back(make(2 * kSec, EventKind::ExportStart, 1, 2, "2.0x00000000/0",
                     {{"entries", 5.0}}, 8));
  evs.push_back(make(3 * kSec, EventKind::ExportCommit, 1, 2, "2.0x00000000/0",
                     {{"entries", 5.0}}, 8));
  const Report rep = analyze(evs);
  ASSERT_EQ(rep.count("stuck-export"), 1u);
  EXPECT_EQ(rep.tripped(), 1);
  // The finding names the stuck span's subtree.
  bool found = false;
  for (const Anomaly& a : rep.anomalies)
    if (a.detector == "stuck-export") {
      EXPECT_EQ(a.span, 7);
      EXPECT_NE(a.detail.find("1.0x00000000/0"), std::string::npos);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(Detectors, AbortResolvesAnExport) {
  std::vector<TraceEvent> evs;
  evs.push_back(make(kSec, EventKind::ExportStart, 0, 1, "1.0x00000000/0",
                     {{"entries", 5.0}}, 7));
  evs.push_back(
      make(2 * kSec, EventKind::ExportAbort, 0, 1, "migration-aborted", {}, 7));
  const Report rep = analyze(evs);
  EXPECT_EQ(rep.count("stuck-export"), 0u);
  EXPECT_EQ(rep.exports_aborted, 1u);
}

TEST(Detectors, DeadLetterLeakTripsWhenParkedOutnumberFlushed) {
  std::vector<TraceEvent> evs;
  evs.push_back(make(kSec, EventKind::DeadLetterParked, 1, -1,
                     "1.0x00000000/0", {{"req", 1.0}}, 3));
  evs.push_back(make(kSec, EventKind::DeadLetterParked, 1, -1,
                     "1.0x00000000/0", {{"req", 2.0}}, 4));
  evs.push_back(make(2 * kSec, EventKind::DeadLetterFlushed, 1, -1,
                     "1.0x00000000/0", {{"req", 1.0}}, 3));
  const Report rep = analyze(evs);
  EXPECT_EQ(rep.parked, 2u);
  EXPECT_EQ(rep.flushed, 1u);
  EXPECT_EQ(rep.count("dead-letter-leak"), 1u);
  EXPECT_EQ(rep.tripped(), 1);

  // Flushing the second request clears it.
  evs.push_back(make(3 * kSec, EventKind::DeadLetterFlushed, 1, -1,
                     "1.0x00000000/0", {{"req", 2.0}}, 4));
  EXPECT_EQ(analyze(evs).count("dead-letter-leak"), 0u);
}

// ---------------------------------------------------------------------------
// Series and summary metrics
// ---------------------------------------------------------------------------

TEST(Series, PerTickLoadAndImbalanceCv) {
  std::vector<TraceEvent> evs;
  // Two ranks report loads via heartbeats: tick 0 balanced, tick 1 skewed.
  evs.push_back(
      make(100, EventKind::HeartbeatSent, 0, 1, "", {{"load", 4.0}}));
  evs.push_back(
      make(200, EventKind::HeartbeatSent, 1, 0, "", {{"load", 4.0}}));
  evs.push_back(
      make(kSec + 100, EventKind::HeartbeatSent, 0, 1, "", {{"load", 8.0}}));
  evs.push_back(
      make(kSec + 200, EventKind::HeartbeatSent, 1, 0, "", {{"load", 0.0}}));
  const Report rep = analyze(evs);
  ASSERT_EQ(rep.ticks, 2u);
  ASSERT_EQ(rep.num_ranks, 2);
  EXPECT_DOUBLE_EQ(rep.series[0].load[0], 4.0);
  EXPECT_DOUBLE_EQ(rep.series[0].load[1], 4.0);
  EXPECT_DOUBLE_EQ(rep.series[0].cv, 0.0);  // perfectly balanced
  EXPECT_DOUBLE_EQ(rep.series[1].load[0], 8.0);
  EXPECT_DOUBLE_EQ(rep.series[1].load[1], 0.0);
  EXPECT_DOUBLE_EQ(rep.series[1].cv, 1.0);  // stddev 4 / mean 4
  EXPECT_DOUBLE_EQ(rep.cv_max, 1.0);
  EXPECT_DOUBLE_EQ(rep.cv_mean, 0.5);
}

TEST(Series, SilentTicksCarryLoadsForward) {
  std::vector<TraceEvent> evs;
  evs.push_back(make(0, EventKind::HeartbeatSent, 0, 1, "", {{"load", 2.0}}));
  evs.push_back(make(0, EventKind::HeartbeatSent, 1, 0, "", {{"load", 6.0}}));
  // Nothing for 3 ticks, then one event to extend the timeline.
  evs.push_back(make(3 * kSec + 1, EventKind::HeartbeatSent, 0, 1, "",
                     {{"load", 2.0}}));
  const Report rep = analyze(evs);
  ASSERT_EQ(rep.ticks, 4u);
  for (std::uint64_t t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(rep.series[t].load[0], 2.0) << "tick " << t;
    EXPECT_DOUBLE_EQ(rep.series[t].load[1], 6.0) << "tick " << t;
  }
}

TEST(Summary, MigrationChurnSplitDepthAndLocality) {
  std::vector<TraceEvent> evs;
  evs.push_back(make(100, EventKind::ExportStart, 0, 1, "1.0x00000000/0",
                     {{"entries", 40.0}}, 1));
  evs.push_back(make(500, EventKind::ExportCommit, 0, 1, "1.0x00000000/0",
                     {{"entries", 40.0}}, 1));
  // A split of a 3-bit fragment into 8 children reaches 6 bits.
  evs.push_back(make(kSec + 1, EventKind::DirfragSplit, 1, -1,
                     "1.0x20000000/3", {{"fragments", 8.0}}));
  evs.push_back(make(kSec + 2, EventKind::DirfragMerge, 1, -1,
                     "1.0x00000000/0"));
  const std::map<std::string, double> counters = {
      {"mds_requests_completed_total", 90.0}, {"mds_forwards_total", 10.0}};
  const Report rep = analyze(evs, {}, &counters);
  EXPECT_EQ(rep.ticks, 2u);
  EXPECT_EQ(rep.exports_started, 1u);
  EXPECT_EQ(rep.exports_committed, 1u);
  EXPECT_EQ(rep.entries_shipped, 40u);
  EXPECT_DOUBLE_EQ(rep.churn, 0.5);  // 1 start / 2 ticks
  EXPECT_EQ(rep.splits, 1u);
  EXPECT_EQ(rep.merges, 1u);
  EXPECT_EQ(rep.max_split_depth, 6);
  ASSERT_TRUE(rep.has_locality);
  EXPECT_DOUBLE_EQ(rep.locality_ratio, 0.9);
  EXPECT_EQ(rep.tripped(), 0);
}

TEST(Summary, EmptyTimeline) {
  const Report rep = analyze(std::vector<TraceEvent>{});
  EXPECT_EQ(rep.events, 0u);
  EXPECT_EQ(rep.ticks, 0u);
  EXPECT_EQ(rep.tripped(), 0);
  EXPECT_NE(rep.to_json().find("\"events\":0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parsers: the analyzer must consume what the sinks emit
// ---------------------------------------------------------------------------

TEST(Parse, TraceJsonRoundTrip) {
  TraceSink sink;
  const SpanId parent = sink.next_span();
  const SpanId span = sink.next_span();
  sink.event(100, EventKind::ExportStart, 0, 2, "1.0x80000000/1",
             {{"entries", 12.0}, {"eta_ms", 3.5}}, span, parent);
  sink.event(200, EventKind::Crash, 1);
  sink.event(300, EventKind::FaultInjected, -1, -1, "hb\"drop\"");
  const auto parsed = parse_trace_json(sink.to_json());
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].at, 100u);
  EXPECT_EQ(parsed[0].kind, EventKind::ExportStart);
  EXPECT_EQ(parsed[0].rank, 0);
  EXPECT_EQ(parsed[0].peer, 2);
  EXPECT_EQ(parsed[0].span, span);
  EXPECT_EQ(parsed[0].parent, parent);
  EXPECT_EQ(parsed[0].detail, "1.0x80000000/1");
  ASSERT_EQ(parsed[0].fields.size(), 2u);
  EXPECT_EQ(parsed[0].fields[0].first, "entries");
  EXPECT_DOUBLE_EQ(parsed[0].fields[0].second, 12.0);
  EXPECT_DOUBLE_EQ(parsed[0].fields[1].second, 3.5);
  EXPECT_EQ(parsed[1].kind, EventKind::Crash);
  EXPECT_EQ(parsed[1].rank, 1);
  EXPECT_EQ(parsed[1].peer, -1);
  EXPECT_EQ(parsed[1].span, kNoSpan);
  EXPECT_EQ(parsed[2].detail, "hb\"drop\"");
}

TEST(Parse, AnalyzingParsedDumpMatchesAnalyzingLiveSink) {
  TraceSink sink;
  const SpanId s1 = sink.next_span();
  sink.event(100, EventKind::WhenDecision, 0, -1, "",
             {{"go", 1.0}, {"my_load", 3.0}}, s1);
  sink.event(200, EventKind::ExportStart, 0, 1, "1.0x00000000/0",
             {{"entries", 4.0}}, 2, s1);
  sink.event(kSec, EventKind::ExportCommit, 0, 1, "1.0x00000000/0",
             {{"entries", 4.0}}, 2);
  const Report live = analyze(sink.events());
  const Report parsed = analyze(parse_trace_json(sink.to_json()));
  EXPECT_EQ(live.to_json(), parsed.to_json());
}

TEST(Parse, MetricsCounters) {
  MetricsRegistry reg;
  reg.counter("a_total").inc(3);
  reg.counter("b_total").inc(5);
  reg.gauge("g").set(1.5);
  reg.histogram("h_ms", {1.0}).observe(0.5);
  const auto counters = parse_metrics_counters(reg.to_json());
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_DOUBLE_EQ(counters.at("a_total"), 3.0);
  EXPECT_DOUBLE_EQ(counters.at("b_total"), 5.0);
}

TEST(Parse, GarbageIsNotFatal) {
  EXPECT_TRUE(parse_trace_json("not json at all").empty());
  EXPECT_TRUE(parse_trace_json("[{\"kind\":\"no-such-kind\",\"t_us\":1}]")
                  .empty());
  EXPECT_TRUE(parse_metrics_counters("{\"counters\":").empty());
  // A truncated array still yields the complete prefix.
  const auto partial = parse_trace_json(
      "[{\"t_us\":1,\"kind\":\"crash\",\"rank\":0},{\"t_us\":2,\"ki");
  ASSERT_EQ(partial.size(), 1u);
  EXPECT_EQ(partial[0].kind, EventKind::Crash);
}

// ---------------------------------------------------------------------------
// Span threading through a real scenario
// ---------------------------------------------------------------------------

TEST(Spans, ThreadedThroughScenario) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 3;
  cfg.cluster.seed = 7;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  cfg.max_time = 2 * kMinute;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  for (int c = 0; c < 3; ++c)
    s.add_client(workloads::make_shared_create_workload(
        c, "/shared", /*files=*/3000, /*think=*/200));
  s.run();

  EXPECT_GT(s.cluster().trace().spans_allocated(), 0u);
  std::size_t starts = 0;
  for (const TraceEvent& ev : s.cluster().trace().events()) {
    switch (ev.kind) {
      case EventKind::WhenDecision:
        // Every balancer tick carries its own span.
        EXPECT_GE(ev.span, 0);
        break;
      case EventKind::WhereDecision:
        // The where satellite: totals always present, even when zero.
        EXPECT_TRUE([&] {
          bool t = false;
          bool sh = false;
          for (const auto& [k, v] : ev.fields) {
            t = t || k == "targets_total";
            sh = sh || k == "shipped_total";
          }
          return t && sh;
        }()) << "where event misses targets_total/shipped_total";
        EXPECT_GE(ev.span, 0);
        break;
      case EventKind::ExportStart:
        ++starts;
        // Migration spans are children of the deciding balancer tick.
        EXPECT_GE(ev.span, 0);
        EXPECT_GE(ev.parent, 0);
        EXPECT_NE(ev.span, ev.parent);
        break;
      case EventKind::ExportCommit:
        EXPECT_GE(ev.span, 0);
        break;
      default:
        break;
    }
  }
  ASSERT_GT(starts, 0u) << "scenario produced no migrations to check";

  // Every migration span resolves: the stuck-export detector agrees.
  const Report rep = analyze(s.cluster().trace().events());
  EXPECT_EQ(rep.count("stuck-export"), 0u);
  EXPECT_GT(rep.spans, 0u);
}

}  // namespace
}  // namespace mantle::obs

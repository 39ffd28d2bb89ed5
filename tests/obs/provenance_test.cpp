#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "balancers/builtin.hpp"
#include "fault/fault.hpp"
#include "obs/analyze.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

/// The decision provenance flight recorder: bounded capture, JSON
/// round-trips, digest stability, byte-identical same-seed dumps (plain
/// and fault-injected, with the wall-clock profiler enabled so its
/// existence provably cannot leak into the dumps), and the --explain
/// renderer pinned against a committed golden mini-dump.

#ifndef MANTLE_TEST_DATA_DIR
#define MANTLE_TEST_DATA_DIR "tests/obs/data"
#endif

namespace mantle::obs {
namespace {

DecisionRecord sample_record(int rank = 0, Time at = 1 * kSec) {
  DecisionRecord rec;
  rec.at = at;
  rec.rank = rank;
  rec.span = 42;
  rec.policy = "mantle";
  rec.min_load = 0.01;
  rec.mdss = {{10.0, 12.0, 55.5, 3.25, 2.0, 100.0},
              {1.0, 1.5, 10.0, 0.5, 0.0, 7.0}};
  rec.loads = {12.0, 1.5};
  rec.alive = {1, 1};
  rec.total_load = 13.5;
  rec.go = true;
  rec.targets = {0.0, 5.25};
  rec.selectors = {"big_first", "small_first"};
  ProvenanceShipment ship;
  ship.target = 1;
  ship.goal = 5.25;
  ship.pool = 3;
  ship.shipped = 4.75;
  ship.picks.push_back({"10000:*", 4.75, 1200});
  rec.ships.push_back(ship);
  rec.lua_steps = 321;
  rec.hook_errors = 1;
  rec.cache_hits = 5;
  rec.cache_misses = 2;
  rec.cache_recompiles = 1;
  rec.digest = input_digest(rec);
  return rec;
}

TEST(ProvenanceRecorder, BoundsAndDropAccounting) {
  ProvenanceRecorder rec(2);
  EXPECT_TRUE(rec.record(sample_record(0)));
  EXPECT_TRUE(rec.record(sample_record(1)));
  EXPECT_FALSE(rec.record(sample_record(2)));
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
  EXPECT_NE(rec.to_json().find("\"dropped\":1"), std::string::npos);
}

TEST(ProvenanceRecorder, JsonRoundTripsEveryField) {
  ProvenanceRecorder rec(8);
  ASSERT_TRUE(rec.record(sample_record()));
  const std::string json = rec.to_json();
  const std::vector<DecisionRecord> back = parse_provenance_json(json);
  ASSERT_EQ(back.size(), 1u);
  const DecisionRecord& r = back[0];
  const DecisionRecord want = sample_record();
  EXPECT_EQ(r.at, want.at);
  EXPECT_EQ(r.rank, want.rank);
  EXPECT_EQ(r.span, want.span);
  EXPECT_EQ(r.policy, want.policy);
  EXPECT_EQ(r.min_load, want.min_load);
  ASSERT_EQ(r.mdss.size(), want.mdss.size());
  for (std::size_t i = 0; i < want.mdss.size(); ++i) {
    EXPECT_EQ(r.mdss[i].auth_metaload, want.mdss[i].auth_metaload);
    EXPECT_EQ(r.mdss[i].all_metaload, want.mdss[i].all_metaload);
    EXPECT_EQ(r.mdss[i].cpu_pct, want.mdss[i].cpu_pct);
    EXPECT_EQ(r.mdss[i].mem_pct, want.mdss[i].mem_pct);
    EXPECT_EQ(r.mdss[i].queue_len, want.mdss[i].queue_len);
    EXPECT_EQ(r.mdss[i].req_rate, want.mdss[i].req_rate);
  }
  EXPECT_EQ(r.loads, want.loads);
  EXPECT_EQ(r.alive, want.alive);
  EXPECT_EQ(r.total_load, want.total_load);
  EXPECT_EQ(r.digest, want.digest);
  EXPECT_EQ(r.truncated, want.truncated);
  EXPECT_EQ(r.go, want.go);
  EXPECT_EQ(r.targets, want.targets);
  EXPECT_EQ(r.selectors, want.selectors);
  ASSERT_EQ(r.ships.size(), 1u);
  EXPECT_EQ(r.ships[0].target, want.ships[0].target);
  EXPECT_EQ(r.ships[0].goal, want.ships[0].goal);
  EXPECT_EQ(r.ships[0].pool, want.ships[0].pool);
  EXPECT_EQ(r.ships[0].shipped, want.ships[0].shipped);
  ASSERT_EQ(r.ships[0].picks.size(), 1u);
  EXPECT_EQ(r.ships[0].picks[0].frag, want.ships[0].picks[0].frag);
  EXPECT_EQ(r.ships[0].picks[0].load, want.ships[0].picks[0].load);
  EXPECT_EQ(r.ships[0].picks[0].entries, want.ships[0].picks[0].entries);
  EXPECT_EQ(r.lua_steps, want.lua_steps);
  EXPECT_EQ(r.hook_errors, want.hook_errors);
  EXPECT_EQ(r.cache_hits, want.cache_hits);
  EXPECT_EQ(r.cache_misses, want.cache_misses);
  EXPECT_EQ(r.cache_recompiles, want.cache_recompiles);

  // Round-tripped records re-serialize byte-identically: the CLI path
  // (parse a dump, replay it) sees exactly what the run recorded.
  ProvenanceRecorder again(8);
  ASSERT_TRUE(again.record(r));
  EXPECT_EQ(again.to_json(), json);
}

TEST(ProvenanceDigest, StableAndInputSensitive) {
  const DecisionRecord a = sample_record();
  EXPECT_EQ(a.digest.size(), 16u);
  EXPECT_EQ(input_digest(a), input_digest(a));

  DecisionRecord b = sample_record();
  b.mdss[1].cpu_pct += 1e-9;
  EXPECT_NE(input_digest(a), input_digest(b));

  // Outputs are deliberately excluded: two runs that saw the same
  // inputs but decided differently (a what-if diff) share the digest.
  DecisionRecord c = sample_record();
  c.go = false;
  c.targets.clear();
  c.ships.clear();
  EXPECT_EQ(input_digest(a), input_digest(c));
}

struct ProvDump {
  std::string provenance_json;
  std::string trace_json;
  std::string metrics_json;
  std::string prom;
  std::uint64_t records = 0;
};

ProvDump run_scenario(std::uint64_t seed, bool faulty,
                      std::size_t provenance_capacity = 0) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 3;
  cfg.cluster.seed = seed;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  if (provenance_capacity > 0)
    cfg.cluster.provenance_capacity = provenance_capacity;
  cfg.max_time = 2 * kMinute;
  std::unique_ptr<fault::FaultInjector> inj;
  if (faulty) {
    cfg.retry.timeout = 2 * kSec;
    cfg.max_time = 3 * kMinute;
  }
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  for (int c = 0; c < 3; ++c)
    s.add_client(workloads::make_shared_create_workload(
        c, "/shared", /*files=*/4000, /*think=*/200));
  if (faulty) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.crashes.push_back({kSec, 1});
    plan.restarts.push_back({2 * kSec, 1});
    plan.hb_drop_prob = 0.05;
    plan.hb_duplicate_prob = 0.02;
    inj = std::make_unique<fault::FaultInjector>(plan);
    inj->arm(s.cluster());
  }
  s.run();
  ProvDump d;
  d.provenance_json = s.cluster().provenance().to_json();
  d.trace_json = s.cluster().trace().to_json();
  d.metrics_json = s.cluster().metrics().to_json();
  d.prom = s.cluster().metrics().to_prometheus();
  d.records = s.cluster().provenance().size();
  return d;
}

TEST(ProvenanceDeterminism, SameSeedDumpsAreByteIdentical) {
  // The profiler measures the real clock while these runs execute; if
  // any wall-time number leaked into the dumps this comparison would be
  // flaky, so running it enabled is part of the assertion.
  Profiler::instance().set_enabled(true);
  const ProvDump a = run_scenario(7, /*faulty=*/false);
  const ProvDump b = run_scenario(7, /*faulty=*/false);
  EXPECT_GT(a.records, 0u);
  // The join: each record's span is the span of exactly one `when` event,
  // its tick's.
  std::map<SpanId, int> whens;
  for (const TraceEvent& ev : parse_trace_json(a.trace_json))
    if (ev.kind == EventKind::WhenDecision) ++whens[ev.span];
  const std::vector<DecisionRecord> recs =
      parse_provenance_json(a.provenance_json);
  ASSERT_EQ(recs.size(), a.records);
  for (const DecisionRecord& rec : recs)
    EXPECT_EQ(whens[rec.span], 1) << "span " << rec.span;
  EXPECT_NE(a.metrics_json.find("mantle_provenance_records_total"),
            std::string::npos);
  // The profiler's own series never reach the deterministic exports.
  EXPECT_EQ(a.prom.find("mantle_profile_"), std::string::npos);
  EXPECT_EQ(a.metrics_json.find("mantle_profile_"), std::string::npos);
  EXPECT_EQ(a.provenance_json, b.provenance_json);
  EXPECT_EQ(a.trace_json, b.trace_json);

  const ProvDump c = run_scenario(8, /*faulty=*/false);
  EXPECT_NE(a.provenance_json, c.provenance_json);
}

TEST(ProvenanceDeterminism, FaultInjectedDumpsAreByteIdentical) {
  Profiler::instance().set_enabled(true);
  const ProvDump a = run_scenario(11, /*faulty=*/true);
  const ProvDump b = run_scenario(11, /*faulty=*/true);
  EXPECT_GT(a.records, 0u);
  EXPECT_EQ(a.provenance_json, b.provenance_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(ProvenanceDeterminism, CapacityDropsAreDeterministic) {
  const ProvDump a = run_scenario(7, /*faulty=*/false, /*capacity=*/4);
  const ProvDump b = run_scenario(7, /*faulty=*/false, /*capacity=*/4);
  const auto records = parse_provenance_json(a.provenance_json);
  EXPECT_EQ(records.size(), 4u);
  EXPECT_NE(a.provenance_json.find("\"dropped\":"), std::string::npos);
  EXPECT_EQ(a.provenance_json, b.provenance_json);
  EXPECT_NE(a.metrics_json.find("mantle_provenance_dropped_total"),
            std::string::npos);
}

std::string read_data_file(const std::string& name) {
  const std::string path = std::string(MANTLE_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ProvenanceExplain, GoldenMiniDump) {
  // The committed mini-dump pins both the dump format (it must still
  // parse) and the narrative rendering, byte for byte. Its trace also
  // holds two `provenance-decision` events, a kind no longer written:
  // the parser skips them, and the narrative joins records to their
  // migrations by span alone.
  const auto records = parse_provenance_json(read_data_file(
      "mini.provenance.json"));
  ASSERT_EQ(records.size(), 2u);
  const std::string trace = read_data_file("mini.trace.json");
  std::size_t retired = 0;
  for (std::size_t at = trace.find("\"kind\":\"provenance-decision\"");
       at != std::string::npos;
       at = trace.find("\"kind\":\"provenance-decision\"", at + 1))
    ++retired;
  EXPECT_EQ(retired, 2u);
  const auto events = parse_trace_json(trace);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::ExportStart);
  EXPECT_EQ(events[1].kind, EventKind::ExportCommit);
  EXPECT_EQ(render_explain(records, events, {}),
            read_data_file("mini.explain.txt"));
}

TEST(ProvenanceExplain, FiltersByTickAndRank) {
  const auto records = parse_provenance_json(read_data_file(
      "mini.provenance.json"));
  ExplainOptions opt;
  opt.rank = 1;
  const std::string by_rank = render_explain(records, {}, opt);
  EXPECT_NE(by_rank.find("rank 1"), std::string::npos);
  EXPECT_EQ(by_rank.find("] rank 0 "), std::string::npos);

  ExplainOptions none;
  none.rank = 99;
  EXPECT_NE(render_explain(records, {}, none).find("0 decision(s)"),
            std::string::npos);
}

TEST(Profiler, ScopedPhasesAccumulateAndNest) {
  Profiler& prof = Profiler::instance();
  prof.set_enabled(true);
  prof.reset();
  {
    ScopedPhase outer(ProfilePhase::ClusterTick);
    ScopedPhase inner(ProfilePhase::HookEval);
  }
  const auto tick = prof.stats(ProfilePhase::ClusterTick);
  const auto hook = prof.stats(ProfilePhase::HookEval);
  EXPECT_EQ(tick.scopes, 1u);
  EXPECT_EQ(hook.scopes, 1u);
  // Nested self-time accounting: the parent's self time excludes the
  // child's wall time.
  EXPECT_GE(tick.wall_ns, hook.wall_ns);
  EXPECT_LE(tick.self_ns, tick.wall_ns);
  const std::string table = prof.table();
  EXPECT_NE(table.find("cluster-tick"), std::string::npos);
  EXPECT_NE(table.find("hook-eval"), std::string::npos);
  const std::string json = prof.to_json();
  EXPECT_NE(json.find("mantle_profile_cluster_tick_scopes_total"),
            std::string::npos);
  prof.reset();
  EXPECT_EQ(prof.stats(ProfilePhase::ClusterTick).scopes, 0u);
}

TEST(Profiler, DisabledScopesRecordNothing) {
  Profiler& prof = Profiler::instance();
  prof.set_enabled(false);
  prof.reset();
  { ScopedPhase scope(ProfilePhase::TraceIo); }
  EXPECT_EQ(prof.stats(ProfilePhase::TraceIo).scopes, 0u);
  prof.set_enabled(true);
}

}  // namespace
}  // namespace mantle::obs

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "balancers/builtin.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

/// The trace JSON, Perfetto and provenance writers reserve an upper bound
/// before they write, so a document is never copied while it grows. A
/// bound that is too small still yields the right bytes and only brings
/// the growth copies back, so these tests are what notices: every
/// document, on content built to be as long as possible per stored value,
/// must fit the bound its writer reserved.

namespace mantle::obs {
namespace {

constexpr double kLongest = -2.2250738585072014e-308;  // 24 bytes of text
constexpr std::int64_t kMaxSpan = std::numeric_limits<std::int64_t>::max();
constexpr Time kMaxTime = std::numeric_limits<Time>::max();

/// 4 KiB of control bytes, each written as a 6-byte `\u00XX` escape
/// (tab, newline and carriage return, which have 2-byte escapes, are
/// left out).
std::string control_bytes() {
  std::string s(4096, '\0');
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = static_cast<char>(i % 0x20);
    s[i] = c == '\t' || c == '\n' || c == '\r' ? '\x01' : c;
  }
  return s;
}

TEST(DumpBound, EmptyDocumentsReserveTheirLiteralText) {
  // Literal text, which the bound counts exactly, and in provenance one
  // integer, which it counts as the longest.
  const TraceSink sink;
  EXPECT_EQ(sink.to_json(), "[]");
  EXPECT_EQ(sink.json_bound(), 2u);
  EXPECT_EQ(sink.perfetto_bound(nullptr), sink.to_perfetto().size());
  const ProvenanceRecorder rec;
  EXPECT_EQ(rec.to_json(), "{\"dropped\":0,\"records\":[]}");
  EXPECT_EQ(rec.json_bound(), rec.to_json().size() - 1 + kMaxIntegerChars);
}

TEST(DumpBound, AdversarialTraceFitsItsReservation) {
  TraceSink sink;
  const std::string detail = control_bytes();
  const std::string long_key = "\"\\" + control_bytes() + std::string(512, 'k');
  for (int i = 0; i < 4; ++i) {
    TraceEvent ev;
    ev.at = kMaxTime - static_cast<Time>(i);
    ev.kind = i % 2 == 0 ? EventKind::ExportStart : EventKind::ExportCommit;
    ev.rank = 99 + i;
    ev.peer = 98;
    ev.span = kMaxSpan;
    ev.parent = kMaxSpan - 1;
    ev.detail = detail;
    ev.fields = {{long_key, kLongest},
                 {"x", kLongest},
                 {"y", -std::numeric_limits<double>::infinity()}};
    sink.record(std::move(ev));
  }
  sink.event(1, EventKind::Crash);  // no optional parts at all

  const std::string json = sink.to_json();
  EXPECT_GT(json.size(), 4 * 2 * 6 * detail.size());
  EXPECT_LE(json.size(), sink.json_bound());
  EXPECT_LE(sink.to_perfetto().size(), sink.perfetto_bound(nullptr));

  // The profiler overload's counter tracks count too, at their longest:
  // 2^64 ns of wall and self time.
  Profiler& prof = Profiler::instance();
  prof.reset();
  for (int i = 0; i < kNumProfilePhases; ++i)
    prof.add(static_cast<ProfilePhase>(i),
             std::numeric_limits<std::uint64_t>::max(),
             std::numeric_limits<std::uint64_t>::max());
  const std::string profiled = sink.to_perfetto(&prof);
  EXPECT_NE(profiled.find("\"wall_ms\":18446744073709.551"),
            std::string::npos);
  EXPECT_LE(profiled.size(), sink.perfetto_bound(&prof));
  prof.reset();
}

TEST(DumpBound, AdversarialProvenanceFitsItsReservation) {
  ProvenanceRecorder recorder(2);
  for (int i = 0; i < 3; ++i) {  // the third is dropped
    DecisionRecord rec;
    rec.at = kMaxTime;
    rec.rank = std::numeric_limits<int>::min();
    rec.span = kMaxSpan;
    rec.policy = control_bytes();
    rec.min_load = kLongest;
    rec.mdss.assign(3, {kLongest, kLongest, kLongest, kLongest, kLongest,
                        kLongest});
    rec.loads.assign(5, kLongest);
    rec.alive.assign(5, 1);
    rec.total_load = kLongest;
    rec.digest = control_bytes();
    rec.go = true;
    rec.targets.assign(5, kLongest);
    rec.selectors = {control_bytes(), "\"\\"};
    rec.ships.push_back(
        {std::numeric_limits<int>::min(),
         kLongest,
         std::numeric_limits<std::uint64_t>::max(),
         kLongest,
         {{control_bytes(), kLongest,
           std::numeric_limits<std::uint64_t>::max()}}});
    rec.lua_steps = rec.hook_errors = rec.cache_hits = rec.cache_misses =
        rec.cache_recompiles = std::numeric_limits<std::uint64_t>::max();
    recorder.record(std::move(rec));
  }
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"dropped\":1"), std::string::npos);
  EXPECT_LE(json.size(), recorder.json_bound());
}

TEST(DumpBound, RunDocumentsReserveLessThanTwiceTheirSize) {
  // A bound far above the document would make RSS rise by more than the
  // bytes written wherever a page of it is touched; keep it tight on a
  // real run's dumps too.
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 3;
  cfg.cluster.seed = 7;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  for (int c = 0; c < 3; ++c)
    s.add_client(workloads::make_shared_create_workload(
        c, "/shared", /*files=*/4000, /*think=*/200));
  s.run();
  const TraceSink& sink = s.cluster().trace();
  const ProvenanceRecorder& prov = s.cluster().provenance();
  ASSERT_GT(prov.size(), 0u);
  const struct {
    const char* name;
    std::size_t size;
    std::size_t bound;
  } docs[] = {
      {"trace", sink.to_json().size(), sink.json_bound()},
      {"perfetto", sink.to_perfetto().size(), sink.perfetto_bound(nullptr)},
      {"provenance", prov.to_json().size(), prov.json_bound()},
  };
  for (const auto& d : docs) {
    EXPECT_LE(d.size, d.bound) << d.name;
    EXPECT_LT(d.bound, 2 * d.size) << d.name;
  }
}

}  // namespace
}  // namespace mantle::obs

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace mantle::obs {
namespace {

TEST(Trace, RecordsInOrder) {
  TraceSink sink;
  sink.event(10, EventKind::HeartbeatSent, 0, 1);
  sink.event(20, EventKind::WhenDecision, 0, -1, "", {{"go", 1.0}});
  ASSERT_EQ(sink.size(), 2u);
  const auto& evs = sink.events();
  EXPECT_EQ(evs[0].at, 10u);
  EXPECT_EQ(evs[0].kind, EventKind::HeartbeatSent);
  EXPECT_EQ(evs[0].peer, 1);
  EXPECT_EQ(evs[1].at, 20u);
  ASSERT_EQ(evs[1].fields.size(), 1u);
  EXPECT_EQ(evs[1].fields[0].first, "go");
  EXPECT_DOUBLE_EQ(evs[1].fields[0].second, 1.0);
}

TEST(Trace, CapacityCapCountsDrops) {
  TraceSink sink(2);
  sink.event(1, EventKind::HeartbeatSent);
  sink.event(2, EventKind::HeartbeatSent);
  sink.event(3, EventKind::HeartbeatSent);
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped_events(), 1u);

  // event() checks the capacity before it builds anything; it must still
  // keep exactly the prefix and drop count of building the event and
  // handing it to record().
  TraceSink built(3);
  TraceSink recorded(3);
  for (int i = 0; i < 5; ++i) {
    const std::string detail = "frag" + std::to_string(i);
    built.event(static_cast<Time>(i), EventKind::ExportStart, i, i + 1, detail,
                {{"entries", i * 2.0}, {"eta_ms", 0.5}}, i, i - 1);
    TraceEvent ev;
    ev.at = static_cast<Time>(i);
    ev.kind = EventKind::ExportStart;
    ev.rank = i;
    ev.peer = i + 1;
    ev.span = i;
    ev.parent = i - 1;
    ev.detail = detail;
    ev.fields = {{"entries", i * 2.0}, {"eta_ms", 0.5}};
    recorded.record(std::move(ev));
  }
  EXPECT_EQ(built.size(), 3u);
  EXPECT_EQ(built.to_json(), recorded.to_json());
  EXPECT_EQ(built.dropped_events(), 2u);
  EXPECT_EQ(built.dropped_events(), recorded.dropped_events());
}

TEST(Trace, JsonOmitsAbsentParts) {
  TraceSink sink;
  sink.event(5, EventKind::Crash);  // no rank/peer/detail/fields
  EXPECT_EQ(sink.to_json(), "[{\"t_us\":5,\"kind\":\"crash\"}]");
}

TEST(Trace, JsonFullEvent) {
  TraceSink sink;
  sink.event(7, EventKind::ExportStart, 0, 2, "100:0*",
             {{"entries", 12.0}, {"eta_ms", 3.5}});
  EXPECT_EQ(sink.to_json(),
            "[{\"t_us\":7,\"kind\":\"export-start\",\"rank\":0,\"peer\":2,"
            "\"detail\":\"100:0*\",\"fields\":{\"entries\":12,"
            "\"eta_ms\":3.5}}]");
}

TEST(Trace, JsonCarriesSpanAndParent) {
  TraceSink sink;
  const SpanId parent = sink.next_span();
  const SpanId span = sink.next_span();
  EXPECT_EQ(parent, 1);
  EXPECT_EQ(span, 2);
  EXPECT_EQ(sink.spans_allocated(), 2u);
  sink.event(9, EventKind::ExportStart, 1, 2, "f", {}, span, parent);
  EXPECT_EQ(sink.to_json(),
            "[{\"t_us\":9,\"kind\":\"export-start\",\"rank\":1,\"peer\":2,"
            "\"span\":2,\"parent\":1,\"detail\":\"f\"}]");
}

TEST(Trace, PerfettoHasTracksAndMigrationPairs) {
  TraceSink sink;
  const SpanId tick = sink.next_span();
  const SpanId mig = sink.next_span();
  sink.event(100, EventKind::WhenDecision, 0, -1, "", {{"go", 1.0}}, tick);
  sink.event(200, EventKind::ExportStart, 0, 1, "f", {{"entries", 3.0}}, mig,
             tick);
  sink.event(900, EventKind::ExportCommit, 0, 1, "f", {{"entries", 3.0}},
             mig);
  const std::string p = sink.to_perfetto();
  // Process/thread metadata: one track per rank plus a cluster track.
  EXPECT_NE(p.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(p.find("{\"name\":\"mantle\"}"), std::string::npos);
  EXPECT_NE(p.find("{\"name\":\"mds0\"}"), std::string::npos);
  EXPECT_NE(p.find("{\"name\":\"mds1\"}"), std::string::npos);
  // The migration renders as an async begin/end pair keyed by its span.
  EXPECT_NE(p.find("\"ph\":\"b\",\"cat\":\"migration\",\"id\":2"),
            std::string::npos);
  EXPECT_NE(p.find("\"ph\":\"e\",\"cat\":\"migration\",\"id\":2"),
            std::string::npos);
  // Every event also lands as an instant on its rank's track.
  EXPECT_NE(p.find("\"name\":\"when\""), std::string::npos);
  EXPECT_NE(p.find("\"name\":\"export-start\""), std::string::npos);
  EXPECT_NE(p.find("\"name\":\"export-commit\""), std::string::npos);
}

TEST(Trace, JsonEscapesDetail) {
  TraceSink sink;
  sink.event(1, EventKind::FaultInjected, -1, -1, "a\"b\\c");
  const std::string js = sink.to_json();
  EXPECT_NE(js.find("\"detail\":\"a\\\"b\\\\c\""), std::string::npos);
}

TEST(Trace, EmptySinkIsEmptyArray) {
  TraceSink sink;
  EXPECT_EQ(sink.to_json(), "[]");
}

// The exact documents below pin output that no fault or benchmark run
// produces: every escape class, the pinned and boundary number spellings,
// both halves of a migration pair and a `where` event's per-target keys.

/// The metadata prefix of a Perfetto document whose largest rank is
/// `max_rank`.
std::string perfetto_head(int max_rank) {
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
      "\"args\":{\"name\":\"mantle\"}},"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"cluster\"}}";
  for (int r = 0; r <= max_rank; ++r)
    out += ",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" +
           std::to_string(r + 1) + ",\"args\":{\"name\":\"mds" +
           std::to_string(r) + "\"}}";
  return out;
}

TEST(Trace, DetailEscapesEveryByteClassExactly) {
  TraceSink sink;
  sink.event(3, EventKind::FaultInjected, 2, -1,
             "q\"b\\s\x01\x1f\n\t\r\x7f"
             "\xc3\xa9");
  // Short escapes for quote, backslash, newline, tab and carriage return,
  // lower-case \u00XX for other control bytes; DEL and UTF-8 pass through.
  const std::string detail =
      "\"q\\\"b\\\\s\\u0001\\u001f\\n\\t\\r\x7f"
      "\xc3\xa9\"";
  EXPECT_EQ(sink.to_json(),
            "[{\"t_us\":3,\"kind\":\"fault-injected\",\"rank\":2,"
            "\"detail\":" + detail + "}]");
  EXPECT_EQ(sink.to_perfetto(),
            perfetto_head(2) +
                ",{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"mantle\","
                "\"name\":\"fault-injected\",\"ts\":3,\"pid\":0,\"tid\":3,"
                "\"args\":{\"detail\":" + detail + "}}]}");
}

TEST(Trace, FieldNumbersKeepTheirSpellings) {
  const double inf = std::numeric_limits<double>::infinity();
  TraceSink sink;
  sink.event(4, EventKind::HeartbeatSent, 0, -1, "",
             {{"neg_zero", -0.0},
              {"inf", inf},
              {"neg_inf", -inf},
              {"nan", std::nan("")},
              {"below_1e15", std::nextafter(1e15, 0.0)},
              {"1e15", 1e15},
              {"above_1e15", std::nextafter(1e15, inf)},
              {"two53", 9007199254740992.0},
              {"subnormal", std::numeric_limits<double>::denorm_min()}});
  const std::string fields =
      "\"neg_zero\":-0,\"inf\":1e999,\"neg_inf\":-1e999,\"nan\":0,"
      "\"below_1e15\":999999999999999.88,\"1e15\":1000000000000000,"
      "\"above_1e15\":1000000000000000.1,\"two53\":9007199254740992,"
      "\"subnormal\":4.9406564584124654e-324";
  EXPECT_EQ(sink.to_json(),
            "[{\"t_us\":4,\"kind\":\"hb-sent\",\"rank\":0,\"fields\":{" +
                fields + "}}]");
  EXPECT_EQ(sink.to_perfetto(),
            perfetto_head(0) +
                ",{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"mantle\","
                "\"name\":\"hb-sent\",\"ts\":4,\"pid\":0,\"tid\":1,"
                "\"args\":{" + fields + "}}]}");
}

TEST(Trace, PerfettoMigrationPairsExactly) {
  TraceSink sink;
  const SpanId tick = sink.next_span();
  const SpanId mig = sink.next_span();
  const SpanId mig2 = sink.next_span();
  sink.event(200, EventKind::ExportStart, 0, 1, "1.0x0/2", {{"entries", 3.0}},
             mig, tick);
  sink.event(250, EventKind::ExportStart, 1, 0, "7", {}, mig2, tick);
  sink.event(900, EventKind::ExportCommit, 0, 1, "1.0x0/2",
             {{"entries", 3.0}}, mig);
  sink.event(950, EventKind::ExportAbort, 1, 0, "7", {}, mig2);
  EXPECT_EQ(
      sink.to_perfetto(),
      perfetto_head(1) +
          ",{\"ph\":\"b\",\"cat\":\"migration\",\"id\":2,"
          "\"name\":\"migration\",\"ts\":200,\"pid\":0,\"tid\":1,"
          "\"args\":{\"peer\":1,\"span\":2,\"parent\":1,"
          "\"detail\":\"1.0x0/2\",\"entries\":3}}"
          ",{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"mantle\","
          "\"name\":\"export-start\",\"ts\":200,\"pid\":0,\"tid\":1,"
          "\"args\":{\"peer\":1,\"span\":2,\"parent\":1,"
          "\"detail\":\"1.0x0/2\",\"entries\":3}}"
          ",{\"ph\":\"b\",\"cat\":\"migration\",\"id\":3,"
          "\"name\":\"migration\",\"ts\":250,\"pid\":0,\"tid\":2,"
          "\"args\":{\"peer\":0,\"span\":3,\"parent\":1,\"detail\":\"7\"}}"
          ",{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"mantle\","
          "\"name\":\"export-start\",\"ts\":250,\"pid\":0,\"tid\":2,"
          "\"args\":{\"peer\":0,\"span\":3,\"parent\":1,\"detail\":\"7\"}}"
          ",{\"ph\":\"e\",\"cat\":\"migration\",\"id\":2,"
          "\"name\":\"migration\",\"ts\":900,\"pid\":0,\"tid\":1,"
          "\"args\":{\"peer\":1,\"span\":2,\"detail\":\"1.0x0/2\","
          "\"entries\":3}}"
          ",{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"mantle\","
          "\"name\":\"export-commit\",\"ts\":900,\"pid\":0,\"tid\":1,"
          "\"args\":{\"peer\":1,\"span\":2,\"detail\":\"1.0x0/2\","
          "\"entries\":3}}"
          ",{\"ph\":\"e\",\"cat\":\"migration\",\"id\":3,"
          "\"name\":\"migration\",\"ts\":950,\"pid\":0,\"tid\":2,"
          "\"args\":{\"peer\":0,\"span\":3,\"detail\":\"7\"}}"
          ",{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"mantle\","
          "\"name\":\"export-abort\",\"ts\":950,\"pid\":0,\"tid\":2,"
          "\"args\":{\"peer\":0,\"span\":3,\"detail\":\"7\"}}]}");
}

TEST(Trace, WhereEventKeepsItsPerTargetKeys) {
  // A go tick's `where` event, built as MdsNode::tick builds it: the
  // count and sum of the positive targets and nothing per target (the
  // targets and each target's shipment are in the provenance record).
  TraceSink sink;
  sink.event(5000000, EventKind::WhereDecision, 2, -1, {},
             {{"targets_total", 2.0}, {"shipped_total", 12.5}}, 7);
  ASSERT_EQ(sink.events().front().fields.size(), 2u);
  const std::string fields = "\"targets_total\":2,\"shipped_total\":12.5";
  EXPECT_EQ(sink.to_json(),
            "[{\"t_us\":5000000,\"kind\":\"where\",\"rank\":2,\"span\":7,"
            "\"fields\":{" + fields + "}}]");
  EXPECT_EQ(sink.to_perfetto(),
            perfetto_head(2) +
                ",{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"mantle\","
                "\"name\":\"where\",\"ts\":5000000,\"pid\":0,\"tid\":3,"
                "\"args\":{\"span\":7," + fields + "}}]}");
}

TEST(Trace, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(EventKind::FaultInjected); ++k) {
    const char* name = event_kind_name(static_cast<EventKind>(k));
    EXPECT_STRNE(name, "?") << "kind " << k;
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

}  // namespace
}  // namespace mantle::obs

#include "obs/trace.hpp"

#include <gtest/gtest.h>

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

TEST(Trace, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(EventKind::FaultInjected); ++k) {
    const char* name = event_kind_name(static_cast<EventKind>(k));
    EXPECT_STRNE(name, "?") << "kind " << k;
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

}  // namespace
}  // namespace mantle::obs

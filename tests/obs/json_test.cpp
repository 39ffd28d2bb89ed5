#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/rng.hpp"
#include "core/mantle.hpp"
#include "obs/analyze.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "safety/fuzz.hpp"
#include "safety/shadow.hpp"
#include "safety/whatif.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

/// The one JSON module: the escaper against the reader, every writer
/// that carries a string from outside the program (policy output, dump
/// contents, file names), the number formatter against the printf
/// recipe it replaced, and the reader against a document as another
/// JSON implementation writes it.

namespace mantle::obs {
namespace {

using jsonr::JsonValue;

bool has_control_byte(const std::string& s) {
  return std::any_of(s.begin(), s.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20;
  });
}

/// Every short escape, several \u00XX bytes, and both literal
/// characters the escaper must protect.
const std::string kHostile = std::string("q\"b\\s/\n\r\t\b\f") + '\0' +
                             "\x01\x1f\x7f" + "tab\there";

// ---------------------------------------------------------------------------
// Escaper and reader
// ---------------------------------------------------------------------------

TEST(JsonEscape, EveryAsciiByteReadsBackUnchanged) {
  std::string all;
  for (int b = 0; b < 0x80; ++b) {
    const std::string s = std::string("a") + static_cast<char>(b) + "z";
    const std::string lit = json_string(s);
    EXPECT_FALSE(has_control_byte(lit)) << "byte " << b;
    const JsonValue v = jsonr::parse(lit);
    ASSERT_EQ(v.type, JsonValue::Type::String) << "byte " << b;
    EXPECT_EQ(v.str, s) << "byte " << b;
    all += static_cast<char>(b);
  }
  all += "\"\\\"\\";
  const JsonValue v = jsonr::parse(json_string(all));
  EXPECT_EQ(v.str, all);
}

TEST(JsonEscape, ShortEscapesAndLowerHexForOtherControlBytes) {
  EXPECT_EQ(json_string("plain text"), "\"plain text\"");
  EXPECT_EQ(json_string("\"\\\n\r\t"), "\"\\\"\\\\\\n\\r\\t\"");
  EXPECT_EQ(json_string(std::string("\0\x01\x08\x0c\x1b\x1f", 6)),
            "\"\\u0000\\u0001\\u0008\\u000c\\u001b\\u001f\"");
  EXPECT_EQ(json_string("/\x7f\xc3\xa9"), "\"/\x7f\xc3\xa9\"");
  EXPECT_EQ(json_string("a\"b"), "\"a\\\"b\"");
}

TEST(JsonReader, DecodesEveryEscapeAsPythonWritesThem) {
  // What Python's json.dumps (ensure_ascii on) writes for the string
  // "a\u4e2d\bz\f/\"\\\t\n\r\x01\U0001F600\xe9\x7f".
  const std::string doc =
      R"({"s": "a\u4e2d\bz\f/\"\\\t\n\r\u0001\ud83d\ude00\u00e9\u007f"})";
  const JsonValue v = jsonr::parse(doc);
  const JsonValue* s = v.get("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->str,
            "a\xe4\xb8\xad\bz\f/\"\\\t\n\r\x01\xf0\x9f\x98\x80\xc3\xa9\x7f");
}

TEST(JsonReader, SolidusUpperHexAndLoneSurrogates) {
  EXPECT_EQ(jsonr::parse(R"("a\/b")").str, "a/b");
  EXPECT_EQ(jsonr::parse(R"("\u00E9\u4E2D")").str, "\xc3\xa9\xe4\xb8\xad");
  // A surrogate without its partner decodes to U+FFFD, and the escape
  // after an unpaired high surrogate still decodes on its own.
  EXPECT_EQ(jsonr::parse(R"("\ud83dx")").str, "\xef\xbf\xbdx");
  EXPECT_EQ(jsonr::parse(R"("\ude00")").str, "\xef\xbf\xbd");
  EXPECT_EQ(jsonr::parse(R"("\ud83dA")").str, "\xef\xbf\xbd" "A");
}

TEST(JsonReader, MalformedEscapeStopsTheParse) {
  const JsonValue v = jsonr::parse(R"({"a":"ok","b":"\uzz12","c":1})");
  ASSERT_NE(v.get("a"), nullptr);
  EXPECT_EQ(v.get("a")->str, "ok");
  EXPECT_EQ(v.get("c"), nullptr);
}

// ---------------------------------------------------------------------------
// Every writer that carries an outside string
// ---------------------------------------------------------------------------

TEST(JsonWriters, TraceDetailAndFieldKeysRoundTrip) {
  TraceSink sink;
  TraceEvent ev;
  ev.at = 7;
  ev.kind = EventKind::ExportStart;
  ev.rank = 0;
  ev.peer = 1;
  ev.span = 3;
  ev.detail = kHostile;
  ev.fields.emplace_back(kHostile, 1.5);
  sink.record(ev);

  const std::string json = sink.to_json();
  EXPECT_FALSE(has_control_byte(json));
  const TraceEvents back = parse_trace_json(json);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].detail, kHostile);
  ASSERT_EQ(back[0].fields.size(), 1u);
  EXPECT_EQ(back[0].fields[0].first, kHostile);
  EXPECT_EQ(back[0].fields[0].second, 1.5);

  const std::string perfetto = sink.to_perfetto();
  EXPECT_FALSE(has_control_byte(perfetto));
  const JsonValue root = jsonr::parse(perfetto);
  const JsonValue* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  int seen = 0;
  for (const JsonValue& e : events->arr) {
    const JsonValue* args = e.get("args");
    if (args == nullptr || args->get("detail") == nullptr) continue;
    ++seen;
    EXPECT_EQ(args->get("detail")->str, kHostile);
    ASSERT_NE(args->get(kHostile), nullptr);
    EXPECT_EQ(args->get(kHostile)->num, 1.5);
  }
  EXPECT_EQ(seen, 2);  // the async migration begin and the instant
}

TEST(JsonWriters, ProvenancePolicySelectorsAndFragsRoundTrip) {
  DecisionRecord rec;
  rec.at = kSec;
  rec.policy = kHostile;
  rec.selectors = {"big_first", kHostile};
  ProvenanceShipment ship;
  ship.target = 1;
  ship.picks.push_back({kHostile, 2.5, 10});
  rec.ships.push_back(ship);
  rec.digest = input_digest(rec);
  ProvenanceRecorder recorder(4);
  ASSERT_TRUE(recorder.record(rec));

  const std::string json = recorder.to_json();
  EXPECT_FALSE(has_control_byte(json));
  const std::vector<DecisionRecord> back = parse_provenance_json(json);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].policy, kHostile);
  EXPECT_EQ(back[0].selectors, rec.selectors);
  ASSERT_EQ(back[0].ships.size(), 1u);
  ASSERT_EQ(back[0].ships[0].picks.size(), 1u);
  EXPECT_EQ(back[0].ships[0].picks[0].frag, kHostile);
  EXPECT_EQ(back[0].to_json(), rec.to_json());
}

TEST(JsonWriters, AnalysisReportRoundTrips) {
  Report rep;
  rep.anomalies.push_back({"ping-pong", 5, kNoSpan, kHostile});
  rep.histogram_rows.push_back({kHostile, {}});

  const std::string json = rep.to_json();
  EXPECT_FALSE(has_control_byte(json));
  const JsonValue root = jsonr::parse(json);
  const JsonValue* anomalies = root.get("anomalies");
  ASSERT_NE(anomalies, nullptr);
  ASSERT_EQ(anomalies->arr.size(), 1u);
  ASSERT_NE(anomalies->arr[0].get("detail"), nullptr);
  EXPECT_EQ(anomalies->arr[0].get("detail")->str, kHostile);
  const JsonValue* hists = root.get("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->obj.size(), 1u);
  EXPECT_EQ(hists->obj[0].first, kHostile);
}

TEST(JsonWriters, ShadowReasonRoundTrips) {
  safety::ShadowVerdict v;
  v.reason = kHostile;
  const std::string json = v.to_json();
  EXPECT_FALSE(has_control_byte(json));
  const JsonValue root = jsonr::parse(json);
  ASSERT_NE(root.get("reason"), nullptr);
  EXPECT_EQ(root.get("reason")->str, kHostile);
}

TEST(JsonWriters, WhatifDiffFieldsRoundTrip) {
  safety::WhatifResult res;
  res.diffs.push_back({kSec, 0, kHostile, kHostile, kHostile + "r",
                       kHostile + "p"});
  const std::string json = res.to_json();
  EXPECT_FALSE(has_control_byte(json));
  const JsonValue root = jsonr::parse(json);
  const JsonValue* diffs = root.get("diffs");
  ASSERT_NE(diffs, nullptr);
  ASSERT_EQ(diffs->arr.size(), 1u);
  const JsonValue& d = diffs->arr[0];
  for (const char* k : {"digest", "field"}) {
    ASSERT_NE(d.get(k), nullptr) << k;
    EXPECT_EQ(d.get(k)->str, kHostile) << k;
  }
  EXPECT_EQ(d.get("recorded")->str, kHostile + "r");
  EXPECT_EQ(d.get("replayed")->str, kHostile + "p");
}

TEST(JsonWriters, FuzzFailureFieldsRoundTrip) {
  safety::FuzzResult res;
  res.failures.push_back(
      {3, kHostile + "l", kHostile + "s", kHostile + "i", kHostile + "r",
       kHostile + "d"});
  const std::string json = res.to_json();
  EXPECT_FALSE(has_control_byte(json));
  const JsonValue root = jsonr::parse(json);
  const JsonValue* failures = root.get("failures");
  ASSERT_NE(failures, nullptr);
  ASSERT_EQ(failures->arr.size(), 1u);
  const JsonValue& f = failures->arr[0];
  EXPECT_EQ(f.get("level")->str, kHostile + "l");
  EXPECT_EQ(f.get("subject")->str, kHostile + "s");
  EXPECT_EQ(f.get("invariant")->str, kHostile + "i");
  EXPECT_EQ(f.get("reproducer")->str, kHostile + "r");
  EXPECT_EQ(f.get("detail")->str, kHostile + "d");
}

TEST(JsonWriters, ChaosViolationFieldsRoundTrip) {
  chaos::ChaosResult res;
  chaos::ChaosViolation v;
  v.invariant = kHostile + "i";
  v.detail = kHostile + "d";
  res.violations.push_back(v);
  const std::string json = res.to_json();
  EXPECT_FALSE(has_control_byte(json));
  const JsonValue root = jsonr::parse(json);
  const JsonValue* violations = root.get("violations");
  ASSERT_NE(violations, nullptr);
  ASSERT_EQ(violations->arr.size(), 1u);
  EXPECT_EQ(violations->arr[0].get("invariant")->str, kHostile + "i");
  EXPECT_EQ(violations->arr[0].get("detail")->str, kHostile + "d");
}

// ---------------------------------------------------------------------------
// End to end: a policy's own selector names through every dump
// ---------------------------------------------------------------------------

TEST(JsonEndToEnd, ControlByteInPolicySelectorStaysValidJson) {
  // Unknown selectors select nothing, so this policy validates and runs;
  // its second selector name carries a tab into every decision record.
  core::MantlePolicy policy = core::scripts::original();
  policy.howmuch = R"({"big_first", "tab\there"})";
  ASSERT_EQ(core::validate_policy(policy), "");

  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 3;
  cfg.cluster.seed = 7;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  cfg.max_time = 20 * kSec;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [&](int) { return std::make_unique<core::MantleBalancer>(policy); });
  for (int c = 0; c < 3; ++c)
    s.add_client(workloads::make_shared_create_workload(
        c, "/shared", /*files=*/4000, /*think=*/200));
  s.run();

  const std::string json = s.cluster().provenance().to_json();
  EXPECT_FALSE(has_control_byte(json));
  const std::vector<DecisionRecord> records = parse_provenance_json(json);
  ASSERT_FALSE(records.empty());
  const std::vector<std::string> want = {"big_first", "tab\there"};
  std::size_t go = 0;
  for (const DecisionRecord& rec : records) {
    if (!rec.go) continue;
    ++go;
    EXPECT_EQ(rec.selectors, want);
  }
  ASSERT_GT(go, 0u) << "no balancing decision fired";

  // The paper's original policy selects {"big_first"}: every go decision
  // diffs on its selectors, carrying the recorded tab into the report.
  const safety::WhatifResult res =
      safety::whatif_replay(records, core::scripts::original());
  ASSERT_GT(res.selector_diffs, 0u);
  const std::string wjson = res.to_json();
  EXPECT_FALSE(has_control_byte(wjson));
  const JsonValue root = jsonr::parse(wjson);
  const JsonValue* diffs = root.get("diffs");
  ASSERT_NE(diffs, nullptr);
  bool saw_selector_diff = false;
  for (const JsonValue& d : diffs->arr) {
    if (d.get("field") == nullptr || d.get("field")->str != "selectors")
      continue;
    saw_selector_diff = true;
    EXPECT_EQ(d.get("recorded")->str, "big_first,tab\there");
  }
  EXPECT_TRUE(saw_selector_diff);
}

// ---------------------------------------------------------------------------
// Number formatting
// ---------------------------------------------------------------------------

/// The printf recipe format_metric_value used before std::to_chars,
/// kept as the oracle.
std::string printf_recipe(double x) {
  if (!std::isfinite(x)) return x > 0 ? "1e999" : (x < 0 ? "-1e999" : "0");
  char buf[64];
  if (x == std::floor(x) && std::fabs(x) < 1e15)
    std::snprintf(buf, sizeof(buf), "%.0f", x);
  else
    std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

double from_bits(std::uint64_t bits) {
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

TEST(FormatMetricValue, MatchesPrintfOnBoundaryValues) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {0.0,
                            -0.0,
                            1.0,
                            -1.0,
                            0.5,
                            -0.5,
                            0.1,
                            1.0 / 3.0,
                            DBL_MIN,
                            -DBL_MIN,
                            DBL_MAX,
                            -DBL_MAX,
                            DBL_EPSILON,
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            DBL_MIN / 3.0,
                            from_bits(0x000fffffffffffffULL),  // max subnormal
                            1e15,
                            -1e15,
                            std::nextafter(1e15, 0.0),
                            std::nextafter(1e15, inf),
                            -std::nextafter(1e15, 0.0),
                            -std::nextafter(1e15, inf),
                            9007199254740992.0,  // 2^53
                            std::nextafter(9007199254740992.0, inf),
                            4503599627370495.5,  // 2^52 - 0.5
                            1e16,
                            1e17,
                            1e21,
                            1e22,
                            1e23,
                            1e-5,
                            1e-4,
                            123456789012345.6,
                            inf,
                            -inf,
                            std::nan("")};
  for (int i = -64; i <= 64; ++i) xs.push_back(i + 0.5);  // half-integers
  for (int e = -1074; e <= 1023; ++e) xs.push_back(std::ldexp(1.0, e));
  for (int e = -30; e <= 30; ++e) xs.push_back(std::pow(10.0, e));
  for (const double x : xs)
    EXPECT_EQ(format_metric_value(x), printf_recipe(x)) << "x=" << x;
}

TEST(FormatMetricValue, MatchesPrintfOnSeededRandomDoubles) {
  SplitMix64 rng(20151115);
  std::size_t mismatches = 0;
  const auto check = [&](double x) {
    const std::string got = format_metric_value(x);
    const std::string want = printf_recipe(x);
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << "x=" << want << " got " << got;
  };
  // Random bit patterns: every exponent, subnormals, NaNs and infinities.
  for (int i = 0; i < 1000000; ++i) check(from_bits(rng.next()));
  // Integral values either side of the 1e15 switch, and their halves.
  for (int i = 0; i < 100000; ++i) {
    const double n =
        static_cast<double>(rng.next() % 4000000000000000ULL) - 2e15;
    check(n);
    check(n + 0.5);
  }
  // Typical dump values: loads, rates and times.
  for (int i = 0; i < 100000; ++i)
    check(static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * 1e6);
  EXPECT_EQ(mismatches, 0u);
}

TEST(FormatMetricValue, OneWriterMatchesPrintfWhenValuesRepeat) {
  // A writer keeps the text of the last "%.17g" value it formatted. A
  // repeat, a neighbour one ulp away, both zeros, the non-finite
  // spellings and integral values in between must each still print as
  // printf does.
  const double inf = std::numeric_limits<double>::infinity();
  const double a = 1.0 / 3.0;
  std::vector<double> xs = {a,   a,    std::nextafter(a, 1.0), a,   0.0,
                            a,   -0.0, a,    inf,  a,   std::nan(""),
                            a,   -a,   a,    7.0,  a,   1e300,
                            1e300, 2.5, 2.5, -2.5, 2.5};
  // Seeded doubles, each repeating the one before it half of the time.
  SplitMix64 rng(20260701);
  for (int i = 0; i < 100000; ++i)
    xs.push_back(rng.next() % 2 == 0 ? xs.back() : from_bits(rng.next()));
  JsonWriter w;
  std::string want;
  for (const double x : xs) {
    w.number(x);
    w.raw(',');
    want += printf_recipe(x) + ",";
  }
  EXPECT_EQ(std::move(w).take(), want);
}

}  // namespace
}  // namespace mantle::obs

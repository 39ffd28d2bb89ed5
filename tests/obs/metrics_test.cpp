#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace mantle::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, BucketsAreCumulativeAtExport) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (le is inclusive)
  h.observe(5.0);    // <= 10
  h.observe(500.0);  // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 506.5);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + implicit +Inf
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(Histogram, SortsUnorderedBounds) {
  Histogram h({100.0, 1.0, 10.0});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 100.0);
}

TEST(FormatMetricValue, IntegersPrintWithoutFraction) {
  EXPECT_EQ(format_metric_value(0.0), "0");
  EXPECT_EQ(format_metric_value(42.0), "42");
  EXPECT_EQ(format_metric_value(-3.0), "-3");
  EXPECT_EQ(format_metric_value(0.5), "0.5");
}

TEST(FormatMetricValue, NonFiniteIsPrometheusCompatible) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(format_metric_value(inf), "1e999");
  EXPECT_EQ(format_metric_value(-inf), "-1e999");
  EXPECT_EQ(format_metric_value(std::nan("")), "0");
}

TEST(Registry, GetOrCreateReturnsSameHandle) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total", "help");
  Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindCollisionYieldsScratchAndIsCounted) {
  MetricsRegistry reg;
  reg.counter("thing");
  // Re-registering the same name as a gauge must not crash and must not
  // alias the counter; the collision is surfaced as its own metric.
  Gauge& g = reg.gauge("thing");
  g.set(7.0);
  EXPECT_EQ(reg.counter(kCollisionCounterName).value(), 1u);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("obs_registry_collisions_total 1"), std::string::npos);
}

TEST(Registry, CounterNamesListsCountersInNameOrder) {
  MetricsRegistry reg;
  reg.counter("b_total");
  reg.gauge("a_gauge");
  reg.counter("a_total");
  reg.histogram("h_ms", {1.0});
  const std::vector<std::string> names = reg.counter_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a_total");
  EXPECT_EQ(names[1], "b_total");
}

TEST(Registry, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("b_requests_total", "requests served").inc(3);
  reg.gauge("a_depth").set(1.5);
  Histogram& h = reg.histogram("c_lat_ms", {1.0, 10.0}, "latency");
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  const std::string prom = reg.to_prometheus();
  // Name-ordered: gauge "a_depth" first despite late registration.
  EXPECT_LT(prom.find("a_depth"), prom.find("b_requests_total"));
  EXPECT_NE(prom.find("# HELP b_requests_total requests served\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE b_requests_total counter\n"), std::string::npos);
  EXPECT_NE(prom.find("b_requests_total 3\n"), std::string::npos);
  EXPECT_NE(prom.find("a_depth 1.5\n"), std::string::npos);
  EXPECT_NE(prom.find("c_lat_ms_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("c_lat_ms_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("c_lat_ms_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(prom.find("c_lat_ms_sum 55.5\n"), std::string::npos);
  EXPECT_NE(prom.find("c_lat_ms_count 3\n"), std::string::npos);
}

TEST(Registry, JsonExport) {
  MetricsRegistry reg;
  reg.counter("ops_total").inc(2);
  reg.gauge("depth").set(4.0);
  reg.histogram("lat", {1.0}).observe(0.5);
  const std::string js = reg.to_json();
  EXPECT_NE(js.find("\"counters\":{\"ops_total\":2}"), std::string::npos);
  EXPECT_NE(js.find("\"gauges\":{\"depth\":4}"), std::string::npos);
  EXPECT_NE(js.find("\"lat\":{\"buckets\":[{\"le\":1,\"count\":1},"
                    "{\"le\":\"+Inf\",\"count\":0}],\"sum\":0.5,\"count\":1,"
                    "\"quantiles\":{\"p50\":" + format_metric_value(0.5) +
                    ",\"p95\":" + format_metric_value(0.95) +
                    ",\"p99\":" + format_metric_value(0.99) + "}}"),
            std::string::npos);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  Histogram h({1.0, 10.0, 100.0});
  for (int i = 0; i < 10; ++i) h.observe(0.5);   // bucket [0,1]
  for (int i = 0; i < 80; ++i) h.observe(5.0);   // bucket (1,10]
  for (int i = 0; i < 10; ++i) h.observe(50.0);  // bucket (10,100]
  // p50: rank 50 of 100 lands 40/80 into the (1,10] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0 + 9.0 * (40.0 / 80.0));
  // p95: rank 95 lands 5/10 into the (10,100] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 10.0 + 90.0 * (5.0 / 10.0));
  // p05 interpolates from 0 inside the first bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.05), 0.5);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  // Everything in the +Inf bucket clamps to the largest finite bound.
  Histogram inf_only({1.0, 2.0});
  inf_only.observe(100.0);
  EXPECT_DOUBLE_EQ(inf_only.quantile(0.99), 2.0);
  // Free-function form over raw buckets, q clamped into [0,1].
  EXPECT_DOUBLE_EQ(estimate_quantile({4.0}, {2, 0}, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(estimate_quantile({}, {}, 0.5), 0.0);
}

TEST(Registry, EmptyRegistryExportsValidShells) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.to_prometheus(), "");
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(Registry, ExportsAreDeterministicAcrossRegistrationOrder) {
  MetricsRegistry a;
  a.counter("x").inc(1);
  a.gauge("y").set(2);
  MetricsRegistry b;
  b.gauge("y").set(2);
  b.counter("x").inc(1);
  EXPECT_EQ(a.to_prometheus(), b.to_prometheus());
  EXPECT_EQ(a.to_json(), b.to_json());
}

}  // namespace
}  // namespace mantle::obs

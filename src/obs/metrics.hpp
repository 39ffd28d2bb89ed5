#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

/// \file metrics.hpp
/// The metrics half of the observability layer: a registry of named
/// counters, gauges and fixed-bucket histograms with Prometheus-text and
/// JSON exporters. Each registry belongs to one scenario, which runs on
/// one thread (the parallel seed sweep gives every seed its own
/// scenario), so nothing here locks: registration is a map lookup and
/// every update on a returned handle is a plain add or store.
///
/// Determinism contract: exporters iterate a name-ordered map and format
/// numbers with format_metric_value() (obs/json.hpp), so a
/// single-threaded simulator run produces byte-identical snapshots for
/// identical (seed, config) inputs — the property the reproducibility
/// suite asserts.

namespace mantle::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { v_ += delta; }
  std::uint64_t value() const noexcept { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// A value that can go up and down (queue depth, simulated clock, ...).
class Gauge {
 public:
  void set(double x) noexcept { v_ = x; }
  void add(double delta) noexcept { v_ += delta; }
  double value() const noexcept { return v_; }

 private:
  double v_ = 0.0;
};

/// Fixed-bucket histogram (cumulative buckets, Prometheus-style): bucket
/// i counts observations <= bounds[i]; an implicit +Inf bucket catches
/// the rest. Bounds are fixed at registration, so observe() is a scan
/// over a handful of doubles plus three adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() is +Inf.
  const std::vector<std::uint64_t>& bucket_counts() const noexcept {
    return buckets_;
  }

  /// Estimated q-quantile (q in [0,1]) by linear interpolation within
  /// the bucket holding the target rank — see estimate_quantile().
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;          // sorted ascending
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Common bucket layouts used across the instrumentation.
namespace buckets {
/// Request/migration latencies in milliseconds.
std::vector<double> latency_ms();
/// Entry counts (migration sizes, journal replays): powers of ten.
std::vector<double> entries();
/// Lua interpreter steps per hook evaluation.
std::vector<double> lua_steps();
}  // namespace buckets

/// Every registered counter must carry the Prometheus `_total` suffix;
/// the obs name-lint test enforces this over a fully instrumented run.
inline constexpr const char* kCollisionCounterName =
    "obs_registry_collisions_total";

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. Returned references live as long as the
  /// registry. If the name exists with a different kind, a warning
  /// counter (`obs_registry_collisions_total`) is bumped and one of the
  /// registry's unexported scratch instances is returned, so callers never
  /// crash on a naming bug — the collision is visible in the snapshot
  /// instead.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "");

  /// Names of all registered counters (name order) — the lint surface for
  /// the `_total` suffix convention.
  std::vector<std::string> counter_names() const;

  /// Prometheus text exposition format (HELP/TYPE + samples), metrics in
  /// name order.
  std::string to_prometheus() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;

  std::size_t size() const { return entries_.size(); }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  void note_collision();

  std::map<std::string, Entry> entries_;  // name-ordered => stable exports
  // Handed out on name/kind collisions; their values mean nothing.
  Counter scratch_counter_;
  Gauge scratch_gauge_;
  Histogram scratch_histogram_{{1.0}};
};

/// Quantile estimation over fixed buckets (Prometheus
/// histogram_quantile style): find the bucket holding rank q*count in
/// the cumulative distribution and interpolate linearly inside it
/// (the first bucket interpolates from 0). Observations in the +Inf
/// bucket clamp to the largest finite bound. Returns 0 when the
/// histogram is empty. `counts` are non-cumulative with the +Inf
/// bucket at index bounds.size(), exactly Histogram::bucket_counts().
double estimate_quantile(const std::vector<double>& bounds,
                         const std::vector<std::uint64_t>& counts, double q);

}  // namespace mantle::obs

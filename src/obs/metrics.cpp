#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json.hpp"

namespace mantle::obs {

namespace {

/// Scratch instances handed out on name/kind collisions so misuse never
/// dereferences a null handle. Their values are shared process-wide and
/// meaningless; the `obs_registry_collisions_total` counter is the real
/// signal.
Counter& scratch_counter() {
  static Counter c;
  return c;
}
Gauge& scratch_gauge() {
  static Gauge g;
  return g;
}
Histogram& scratch_histogram() {
  static Histogram h{{1.0}};
  return h;
}

}  // namespace

void MetricsRegistry::note_collision_locked() {
  auto it = entries_.find(kCollisionCounterName);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kCounter;
    e.help = "metric registered twice with conflicting kinds";
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(kCollisionCounterName, std::move(e)).first;
  }
  it->second.counter->inc();
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  for (const auto& [name, e] : entries_)
    if (e.kind == Kind::kCounter) out.push_back(name);
  return out;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double x) noexcept {
  std::size_t i = 0;
  while (i < bounds_.size() && x > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::quantile(double q) const {
  return estimate_quantile(bounds_, bucket_counts(), q);
}

double estimate_quantile(const std::vector<double>& bounds,
                         const std::vector<std::uint64_t>& counts, double q) {
  if (counts.empty()) return 0.0;
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= target && counts[i] > 0) {
      if (i >= bounds.size()) {
        // +Inf bucket: no upper edge to interpolate toward — clamp to
        // the largest finite bound (0 for a bound-less histogram).
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double frac = (target - cum) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

namespace buckets {
std::vector<double> latency_ms() {
  return {0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096};
}
std::vector<double> entries() {
  return {1, 10, 100, 1000, 10000, 100000, 1000000};
}
std::vector<double> lua_steps() {
  return {16, 64, 256, 1024, 4096, 16384, 65536, 262144};
}
}  // namespace buckets

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kCounter;
    e.help = help;
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != Kind::kCounter) {
    note_collision_locked();
    return scratch_counter();
  }
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kGauge;
    e.help = help;
    e.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != Kind::kGauge) {
    note_collision_locked();
    return scratch_gauge();
  }
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kHistogram;
    e.help = help;
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != Kind::kHistogram) {
    note_collision_locked();
    return scratch_histogram();
  }
  return *it->second.histogram;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  char buf[128];
  for (const auto& [name, e] : entries_) {
    if (!e.help.empty()) out += "# HELP " + name + " " + e.help + "\n";
    switch (e.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        std::snprintf(buf, sizeof(buf), "%" PRIu64, e.counter->value());
        out += name + " " + buf + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + format_metric_value(e.gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        const auto counts = e.histogram->bucket_counts();
        const auto& bounds = e.histogram->bounds();
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < bounds.size(); ++i) {
          cum += counts[i];
          std::snprintf(buf, sizeof(buf), "%" PRIu64, cum);
          out += name + "_bucket{le=\"" + format_metric_value(bounds[i]) +
                 "\"} " + buf + "\n";
        }
        cum += counts[bounds.size()];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, cum);
        out += name + "_bucket{le=\"+Inf\"} " + buf + "\n";
        out += name + "_sum " + format_metric_value(e.histogram->sum()) + "\n";
        std::snprintf(buf, sizeof(buf), "%" PRIu64, e.histogram->count());
        out += name + "_count " + buf + "\n";
        // Estimated quantiles as a comment: native histograms have no
        // quantile sample type, and emitting summary-style samples
        // would clash with TYPE histogram.
        out += "# QUANTILES " + name +
               " p50=" + format_metric_value(estimate_quantile(bounds, counts, 0.5)) +
               " p95=" + format_metric_value(estimate_quantile(bounds, counts, 0.95)) +
               " p99=" + format_metric_value(estimate_quantile(bounds, counts, 0.99)) +
               "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string counters;
  std::string gauges;
  std::string histograms;
  char buf[128];
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ",";
        std::snprintf(buf, sizeof(buf), "%" PRIu64, e.counter->value());
        counters += json_string(name) + ":" + buf;
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ",";
        gauges +=
            json_string(name) + ":" + format_metric_value(e.gauge->value());
        break;
      case Kind::kHistogram: {
        if (!histograms.empty()) histograms += ",";
        const auto counts = e.histogram->bucket_counts();
        const auto& bounds = e.histogram->bounds();
        std::string bkt;
        for (std::size_t i = 0; i < counts.size(); ++i) {
          if (!bkt.empty()) bkt += ",";
          const std::string le =
              i < bounds.size() ? format_metric_value(bounds[i]) : "\"+Inf\"";
          std::snprintf(buf, sizeof(buf), "%" PRIu64, counts[i]);
          bkt += "{\"le\":" + le + ",\"count\":" + buf + "}";
        }
        std::snprintf(buf, sizeof(buf), "%" PRIu64, e.histogram->count());
        histograms += json_string(name) + ":{\"buckets\":[" + bkt +
                      "],\"sum\":" + format_metric_value(e.histogram->sum()) +
                      ",\"count\":" + buf + ",\"quantiles\":{\"p50\":" +
                      format_metric_value(estimate_quantile(bounds, counts, 0.5)) +
                      ",\"p95\":" +
                      format_metric_value(estimate_quantile(bounds, counts, 0.95)) +
                      ",\"p99\":" +
                      format_metric_value(estimate_quantile(bounds, counts, 0.99)) +
                      "}}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

}  // namespace mantle::obs

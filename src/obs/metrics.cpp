#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace mantle::obs {

void MetricsRegistry::note_collision() {
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
  ++buckets_[i];
  ++count_;
  sum_ += x;
}

double Histogram::quantile(double q) const {
  return estimate_quantile(bounds_, buckets_, q);
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
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kCounter;
    e.help = help;
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != Kind::kCounter) {
    note_collision();
    return scratch_counter_;
  }
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kGauge;
    e.help = help;
    e.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != Kind::kGauge) {
    note_collision();
    return scratch_gauge_;
  }
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kHistogram;
    e.help = help;
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != Kind::kHistogram) {
    note_collision();
    return scratch_histogram_;
  }
  return *it->second.histogram;
}

template <class Out>
void MetricsRegistry::write_prometheus(Out& out) const {
  for (const auto& [name, e] : entries_) {
    if (!e.help.empty()) {
      out.raw("# HELP ");
      out.raw(name);
      out.raw(' ');
      out.raw(e.help);
      out.raw('\n');
    }
    out.raw("# TYPE ");
    out.raw(name);
    switch (e.kind) {
      case Kind::kCounter:
        out.raw(" counter\n");
        out.raw(name);
        out.raw(' ');
        out.integer(e.counter->value());
        out.raw('\n');
        break;
      case Kind::kGauge:
        out.raw(" gauge\n");
        out.raw(name);
        out.raw(' ');
        out.number(e.gauge->value());
        out.raw('\n');
        break;
      case Kind::kHistogram: {
        out.raw(" histogram\n");
        const auto& counts = e.histogram->bucket_counts();
        const auto& bounds = e.histogram->bounds();
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i <= bounds.size(); ++i) {
          cum += counts[i];
          out.raw(name);
          out.raw("_bucket{le=\"");
          if (i < bounds.size())
            out.number(bounds[i]);
          else
            out.raw("+Inf");
          out.raw("\"} ");
          out.integer(cum);
          out.raw('\n');
        }
        out.raw(name);
        out.raw("_sum ");
        out.number(e.histogram->sum());
        out.raw('\n');
        out.raw(name);
        out.raw("_count ");
        out.integer(e.histogram->count());
        // Estimated quantiles as a comment: native histograms have no
        // quantile sample type, and emitting summary-style samples
        // would clash with TYPE histogram.
        out.raw("\n# QUANTILES ");
        out.raw(name);
        out.raw(" p50=");
        out.number(estimate_quantile(bounds, counts, 0.5));
        out.raw(" p95=");
        out.number(estimate_quantile(bounds, counts, 0.95));
        out.raw(" p99=");
        out.number(estimate_quantile(bounds, counts, 0.99));
        out.raw('\n');
        break;
      }
    }
  }
}

template <class Out>
void MetricsRegistry::write_json(Out& out) const {
  // One pass over the name-ordered entries per section.
  const auto section = [&](Kind kind, auto&& value) {
    bool first = true;
    for (const auto& [name, e] : entries_) {
      if (e.kind != kind) continue;
      if (!first) out.raw(',');
      first = false;
      out.string(name);
      out.raw(':');
      value(e);
    }
  };
  out.raw("{\"counters\":{");
  section(Kind::kCounter, [&](const Entry& e) { out.integer(e.counter->value()); });
  out.raw("},\"gauges\":{");
  section(Kind::kGauge, [&](const Entry& e) { out.number(e.gauge->value()); });
  out.raw("},\"histograms\":{");
  section(Kind::kHistogram, [&](const Entry& e) {
    const auto& counts = e.histogram->bucket_counts();
    const auto& bounds = e.histogram->bounds();
    out.raw("{\"buckets\":[");
    for (std::size_t i = 0; i < counts.size(); ++i) {
      out.raw(i > 0 ? ",{\"le\":" : "{\"le\":");
      if (i < bounds.size())
        out.number(bounds[i]);
      else
        out.raw("\"+Inf\"");
      out.raw(",\"count\":");
      out.integer(counts[i]);
      out.raw('}');
    }
    out.raw("],\"sum\":");
    out.number(e.histogram->sum());
    out.raw(",\"count\":");
    out.integer(e.histogram->count());
    out.raw(",\"quantiles\":{\"p50\":");
    out.number(estimate_quantile(bounds, counts, 0.5));
    out.raw(",\"p95\":");
    out.number(estimate_quantile(bounds, counts, 0.95));
    out.raw(",\"p99\":");
    out.number(estimate_quantile(bounds, counts, 0.99));
    out.raw("}}");
  });
  out.raw("}}");
}

std::string MetricsRegistry::to_prometheus() const {
  return write_reserved([&](auto& out) { write_prometheus(out); });
}

std::string MetricsRegistry::to_json() const {
  return write_reserved([&](auto& out) { write_json(out); });
}

}  // namespace mantle::obs

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

/// \file analyze.hpp
/// Trace analytics: turns a recorded timeline (a live TraceSink's
/// events() or a parsed `*.trace.json` dump) into per-tick time series,
/// a run summary and a set of anomaly findings. This is the read side of
/// the observability layer — nothing here feeds back into the
/// simulation, so it can run offline over dumped traces (the
/// `mantle-stat` CLI) or inline in tests.
///
/// Determinism contract: given the same events and config, analyze()
/// produces the same Report and Report::to_json() serializes it
/// byte-identically (name-ordered keys, fixed number formatting) — the
/// analysis of a deterministic run is itself part of the reproducibility
/// surface.
///
/// Metric definitions (documented in docs/OBSERVABILITY.md):
///  - per-rank load: last load observation for the rank in each tick
///    (from `hb-sent`/`when` events), carried forward across silent
///    ticks;
///  - imbalance CV: population stddev / mean of the per-rank loads of a
///    tick (0 when the mean is 0);
///  - migration churn: export-starts per tick, averaged over the run;
///  - locality ratio: requests served by the first MDS tried /
///    requests completed, from the sibling metrics snapshot
///    (completed / (completed + forwards)); absent without counters;
///  - split depth: deepest dirfrag produced by a split (parent fragment
///    bits + log2 of the fan-out).
///
/// Anomaly detectors (each trips at most one distinct detector; the CLI
/// exit code is the number of tripped detectors):
///  - ping-pong: the same subtree keeps being exported back to its
///    previous owner — at least kPingPongMinReversals reversals, each
///    within 3 ticks of the export it undoes (single reversals are
///    tolerated: load legitimately moves back after a workload shift or
///    a crash recovery);
///  - thrash: a rank strings together kThrashMinRun balancer ticks
///    that decide to migrate (`when` go=1) while shipping ~zero load
///    (`where` shipped_total <= 1e-9);
///  - stuck-export: an export-start whose span never reaches a commit
///    or abort by the end of the trace;
///  - dead-letter-leak: more requests parked than flushed at the end of
///    the run.

namespace mantle::obs {

/// Detector thresholds. They are conservative: they hold on every
/// healthy bench scenario, so a trip in CI is a real behaviour change.
/// Ping-pong trips once one subtree racks up this many reversals (one
/// finding per subtree, at the crossing event).
inline constexpr std::uint64_t kPingPongMinReversals = 6;
/// Thrash: this many consecutive go-ticks with ~zero shipped load trip.
inline constexpr std::uint64_t kThrashMinRun = 5;

struct AnalyzeConfig {
  /// Time-series bucket width (simulated time).
  Time tick = kSec;
};

/// One time-series bucket.
struct TickPoint {
  std::uint64_t tick = 0;     ///< bucket index (at / cfg.tick)
  std::vector<double> load;   ///< per-rank load (carried forward)
  double cv = 0.0;            ///< imbalance CV across ranks
  std::uint64_t migrations = 0;        ///< export-starts begun this tick
  std::uint64_t entries_shipped = 0;   ///< entries committed this tick
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
};

/// One anomaly finding.
struct Anomaly {
  std::string detector;  ///< "ping-pong" | "thrash" | "stuck-export" | ...
  Time at = 0;           ///< when it was detected (last contributing event)
  SpanId span = kNoSpan; ///< causal span of the episode, if any
  std::string detail;    ///< human-readable description
};

/// Parsed `*.metrics.json` dump: counters, gauges and per-histogram
/// quantile summaries (the parts the analyzers consume — raw buckets
/// are not retained).
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;
};

/// Everything analyze() derives from a timeline.
struct Report {
  // --- run summary ---
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  int num_ranks = 0;
  std::uint64_t spans = 0;  ///< distinct span ids seen on events
  double cv_mean = 0.0;
  double cv_max = 0.0;
  std::uint64_t exports_started = 0;
  std::uint64_t exports_committed = 0;
  std::uint64_t exports_aborted = 0;
  double churn = 0.0;  ///< export-starts per tick
  std::uint64_t entries_shipped = 0;
  bool has_locality = false;
  double locality_ratio = 0.0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  int max_split_depth = 0;  ///< deepest dirfrag bits produced by a split
  std::uint64_t parked = 0;
  std::uint64_t flushed = 0;
  std::uint64_t crashes = 0;

  /// Event-pool memory gauges from the metrics snapshot (PR 8's
  /// sim_pool_* gauges); absent without a snapshot carrying them.
  bool has_pool = false;
  double pool_live = 0.0;
  double pool_peak_live = 0.0;
  double pool_capacity = 0.0;
  double pool_reserved_bytes = 0.0;

  /// Histogram quantile rows from the metrics snapshot (name order).
  struct HistogramRow {
    std::string name;
    HistogramSummary summary;
  };
  std::vector<HistogramRow> histogram_rows;

  std::vector<TickPoint> series;
  std::vector<Anomaly> anomalies;

  /// Number of *distinct* detectors with at least one finding — the
  /// mantle-stat exit code under --check.
  int tripped() const;
  /// Findings of one detector.
  std::uint64_t count(const std::string& detector) const;

  /// Deterministic JSON: {"summary":{...},"detectors":{...},
  /// "anomalies":[...],"series":[...]} with name-ordered keys and
  /// format_metric_value() numbers.
  std::string to_json() const;
  /// Human-readable table for terminals.
  std::string to_table() const;
};

/// Analyze a timeline. `counters` (optional) is a metrics snapshot —
/// e.g. from parse_metrics_counters() — used for the locality ratio.
Report analyze(const std::vector<TraceEvent>& events,
               const AnalyzeConfig& cfg = {},
               const std::map<std::string, double>* counters = nullptr);

/// Analyze with a full metrics snapshot: same as the counters overload,
/// plus pool-memory gauges and histogram quantile rows in the report.
Report analyze(const std::vector<TraceEvent>& events,
               const AnalyzeConfig& cfg, const MetricsSnapshot& metrics);

/// Parse a `*.trace.json` dump (the exact format TraceSink::to_json()
/// emits) back into events. Unknown kinds and malformed entries are
/// skipped rather than fatal, so analyzers tolerate truncated dumps.
std::vector<TraceEvent> parse_trace_json(const std::string& json);

/// Parse the "counters" object of a `*.metrics.json` dump
/// (MetricsRegistry::to_json()) into name -> value.
std::map<std::string, double> parse_metrics_counters(const std::string& json);

/// Parse a full `*.metrics.json` dump (counters + gauges + histogram
/// summaries with their exported quantiles).
MetricsSnapshot parse_metrics_json(const std::string& json);

}  // namespace mantle::obs

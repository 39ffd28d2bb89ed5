// Decision provenance flight recorder: one DecisionRecord per
// balancer tick, capturing the full hook input table (per-rank
// heartbeat rows, derived loads, aliveness, whoami) and the resulting
// outputs (when verdict, where targets, howmuch selectors, the exact
// fragments picked for each shipment) plus policy evaluation metadata
// (Lua steps, policy-cache hits/misses, hook errors). Records link to
// the balancer-tick span in the trace, so migration spans started by
// the decision are recoverable from the sibling trace dump.
//
// Determinism contract: records carry only simulated-time data, and
// to_json() serializes them with name-ordered keys and
// format_metric_value() numbers — same (seed, config) runs dump
// byte-identical `<label>-provenance.json` files.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace mantle::obs {

/// One per-rank row of the hook input table, mirroring the
/// HeartbeatPayload fields the Lua MDSs binding exposes.
struct HookInputRow {
  double auth_metaload = 0.0;
  double all_metaload = 0.0;
  double cpu_pct = 0.0;
  double mem_pct = 0.0;
  double queue_len = 0.0;
  double req_rate = 0.0;
};

/// One fragment picked by the selector chain for a shipment.
struct ProvenancePick {
  std::string frag;  ///< DirFragId::str()
  double load = 0.0;
  std::uint64_t entries = 0;
};

/// One per-target shipment attempt (the howmuch phase of a decision).
struct ProvenanceShipment {
  int target = -1;
  double goal = 0.0;          ///< target load scaled by need_min_factor
  std::uint64_t pool = 0;     ///< export candidates gathered
  double shipped = 0.0;       ///< load actually exported
  std::vector<ProvenancePick> picks;
};

/// Everything one balancer tick decided, and why.
struct DecisionRecord {
  Time at = 0;
  int rank = -1;
  SpanId span = kNoSpan;  ///< balancer-tick span in the sibling trace
  std::string policy;     ///< balancer/policy name
  double min_load = 0.0;  ///< mds_bal_min_load gate in force

  // --- inputs (the hook environment) ---
  std::vector<HookInputRow> mdss;  ///< per-rank heartbeat snapshot
  std::vector<double> loads;       ///< mdsload() per rank (0 when dead)
  std::vector<std::uint8_t> alive; ///< 1 = in view
  double total_load = 0.0;
  std::string digest;     ///< FNV-1a over the *untruncated* inputs
  bool truncated = false; ///< per-rank tables never built (above 64 ranks)

  // --- outputs ---
  bool go = false;                     ///< when() verdict (after min_load gate)
  std::vector<double> targets;         ///< where() output, sized to ranks
  std::vector<std::string> selectors;  ///< howmuch() selector chain
  std::vector<ProvenanceShipment> ships;

  // --- policy evaluation metadata (deltas across this decision) ---
  std::uint64_t lua_steps = 0;
  std::uint64_t hook_errors = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_recompiles = 0;

  /// Deterministic JSON object (name-ordered keys).
  std::string to_json() const;
};

/// The inputs a decision's digest covers, read where they lie: a
/// record's own tables, or the rows a balancer tick's view already holds.
/// Each row is six consecutive doubles in HookInputRow's field order, and
/// row i starts `row_stride` bytes after `rows`.
struct DigestInput {
  Time at = 0;
  int rank = -1;
  double min_load = 0.0;
  double total_load = 0.0;
  std::span<const double> loads;
  std::span<const std::uint8_t> alive;
  const unsigned char* rows = nullptr;
  std::size_t row_stride = 0;
  std::size_t row_count = 0;
};

/// 16-hex-char FNV-1a digest over a decision's input fields (at, rank,
/// min_load, total_load, loads, alive, mdss rows). A balancer tick takes
/// it over its view in place, so a truncated record's digest still covers
/// the full input table.
std::string input_digest(const DigestInput& in);

/// The digest over a record's own tables (records of 64 ranks or fewer:
/// a truncated record has none).
std::string input_digest(const DecisionRecord& rec);

/// Bounded record store (same shape as TraceSink): keeps the first
/// `capacity` records, counts the rest as dropped. Like the sink, it
/// belongs to one scenario on one thread and takes no lock.
class ProvenanceRecorder {
 public:
  explicit ProvenanceRecorder(std::size_t capacity = std::size_t{1} << 14)
      : capacity_(capacity) {}

  /// Returns false when the record was dropped (capacity reached).
  bool record(DecisionRecord rec);

  /// The stored records, in record order.
  const std::vector<DecisionRecord>& records() const { return records_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t size() const { return records_.size(); }

  /// Deterministic dump: {"dropped":N,"records":[...]}.
  std::string to_json() const;

  /// The byte count to_json() reserves before it writes: an upper bound
  /// counted as TraceSink::json_bound() counts.
  std::size_t json_bound() const;

 private:
  std::size_t capacity_;
  std::vector<DecisionRecord> records_;
  std::uint64_t dropped_ = 0;
};

/// Parse a `*-provenance.json` dump (the exact format
/// ProvenanceRecorder::to_json() emits) back into records. Malformed
/// entries are skipped, mirroring parse_trace_json().
std::vector<DecisionRecord> parse_provenance_json(const std::string& json);

/// Filters for render_explain(): restrict to one tick bucket (record
/// time / tick_us) and/or one rank. Negative = no filter.
struct ExplainOptions {
  Time tick_us = kSec;    ///< bucket width for --tick
  std::int64_t tick = -1; ///< bucket index filter
  int rank = -1;          ///< rank filter
};

/// Render human-readable decision narratives. `events` (may be empty)
/// is the sibling trace timeline, used to resolve migration outcomes
/// (committed / aborted / unresolved) for each shipment via the
/// record's tick span. Deterministic: pure function of its inputs.
std::string render_explain(const std::vector<DecisionRecord>& records,
                           const TraceEvents& events,
                           const ExplainOptions& opt = {});

}  // namespace mantle::obs

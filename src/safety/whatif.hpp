#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mantle.hpp"
#include "obs/provenance.hpp"

/// \file whatif.hpp
/// What-if replay: run a *candidate* policy over the exact hook inputs a
/// recorded run saw (the decision provenance dump) and diff its verdicts
/// against what the recorded policy actually decided, decision by
/// decision. Where shadow evaluation (shadow.hpp) answers "is this
/// policy safe to inject", what-if answers "what would it have done
/// differently": same when/where/howmuch hooks, but fed the recorded
/// per-rank heartbeat tables instead of a synthetic load model, so the
/// comparison is exact — a candidate identical to the recorded policy
/// produces zero diffs.
///
/// The candidate runs in the same sandbox as shadow evaluation (a
/// budgeted MantleBalancer per recorded rank, so policies with per-rank
/// state — e.g. Fill & Spill's consecutive-overload counter — evolve it
/// in recorded decision order). Records whose per-rank input tables were
/// truncated at capture time (clusters above 64 ranks; see
/// MdsCluster::record_provenance) are counted and skipped: their inputs
/// cannot be reconstructed.
///
/// Determinism contract: pure function of (records, policy, budget);
/// to_json() serializes with name-ordered keys and
/// format_metric_value() numbers.

namespace mantle::safety {

/// One decision where the candidate disagreed with the recorded run.
struct WhatifDiff {
  Time at = 0;
  int rank = -1;
  std::string digest;    ///< input digest of the decision
  std::string field;     ///< "go" | "targets" | "selectors"
  std::string recorded;  ///< rendered recorded value
  std::string replayed;  ///< rendered candidate value
};

struct WhatifResult {
  std::uint64_t decisions = 0;          ///< records in the dump
  std::uint64_t replayed = 0;           ///< decisions re-run
  std::uint64_t skipped_truncated = 0;  ///< inputs elided at capture time
  std::uint64_t go_flips = 0;           ///< when() verdict changed
  std::uint64_t target_diffs = 0;       ///< where() output changed
  std::uint64_t selector_diffs = 0;     ///< howmuch() chain changed
  std::uint64_t hook_errors = 0;        ///< candidate hook errors during replay
  std::vector<WhatifDiff> diffs;        ///< in recorded decision order

  std::uint64_t diff_count() const {
    return go_flips + target_diffs + selector_diffs;
  }

  /// Deterministic JSON: {"summary":{...},"diffs":[...]}.
  std::string to_json() const;
  /// Human-readable diff listing for terminals.
  std::string to_table() const;
};

/// Replay `records` through `policy`. `budget` bounds the interpreter
/// steps per hook call, as in a live MantleBalancer.
WhatifResult whatif_replay(const std::vector<obs::DecisionRecord>& records,
                           const core::MantlePolicy& policy,
                           std::uint64_t budget = 1 << 20);

}  // namespace mantle::safety

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mantle.hpp"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"

/// \file shadow.hpp
/// Shadow evaluation: replay a recorded span-level trace against a
/// *candidate* policy before injecting it into a live cluster — the
/// paper's "check the logic before injecting policies" item, at
/// production standards. The budgeted interpreter (validate_policy)
/// rejects syntax errors and infinite loops; shadow evaluation rejects
/// policies that are *well-formed but harmful*: ones that ping-pong
/// subtrees, thrash (migrate every tick while shipping nothing), or
/// error/blow their budget on real inputs.
///
/// The replay is driven by the recorded timeline (`*.trace.json` dumps
/// from src/obs): every recorded balancer tick (a `when` event) is
/// re-run through the candidate's when/where/howmuch hooks in a
/// sandboxed MantleBalancer, against a *shadow load model*. Per-rank
/// load evolves from the recorded workload growth (positive
/// heartbeat-to-heartbeat deltas — arrivals hitting that rank) plus the
/// candidate's own exports; recorded load *drops* are deliberately
/// excluded, since they are the recorded balancer's migrations and
/// replaying them under a candidate that also migrates would count the
/// rebalancing twice. Each shadow export ships an identified chunk (a
/// subtree stand-in; re-exports that give back a comparable amount of
/// load prefer the chunk most recently imported from the destination,
/// so a policy that bounces load back and forth bounces the *same*
/// chunk, exactly what the ping-pong detector keys on, while small
/// organic counter-flows ship fresh chunks and do not trip it). The
/// synthetic timeline then runs through the obs/analyze
/// detectors; any trip, any budget exhaustion, or hook errors above 5%
/// of hook calls rejects the candidate.

namespace mantle::safety {

struct ShadowConfig {
  /// Interpreter budget per hook call in the sandbox (same default as a
  /// live MantleBalancer).
  std::uint64_t budget = 1 << 20;
  /// Time-series settings for analyzing the synthetic timeline.
  obs::AnalyzeConfig analyze;
};

/// The outcome of one shadow evaluation.
struct ShadowVerdict {
  bool accepted = false;
  std::string reason;  ///< first rejection reason; empty when accepted

  std::uint64_t ticks_replayed = 0;     ///< recorded `when` events re-run
  std::uint64_t hook_calls = 0;         ///< candidate hook evaluations
  std::uint64_t hook_errors = 0;        ///< errors + counted sanitizations
  std::uint64_t budget_exhaustions = 0; ///< hook runs that hit the budget
  std::uint64_t exports = 0;            ///< shadow migrations performed
  int num_ranks = 0;

  /// Analysis of the synthetic decision timeline (detectors included).
  obs::Report report;

  /// Deterministic JSON (name-ordered keys), embedding report.to_json().
  std::string to_json() const;
  /// Human-readable block for terminals.
  std::string to_table() const;
};

/// Replay `recorded` against `policy`. Run core::validate_policy first:
/// it rejects syntax errors and unconditional loops before any replay.
/// Deterministic: same events + same policy + same config =>
/// byte-identical verdict JSON.
ShadowVerdict shadow_evaluate(const std::vector<obs::TraceEvent>& recorded,
                              const core::MantlePolicy& policy,
                              const ShadowConfig& cfg = {});

/// Load a Mantle policy from a named builtin ("original", "greedy",
/// "greedy_even", "fill_spill", "adaptable") or from a policy file:
/// hook sections introduced by `[metaload]` / `[mdsload]` / `[when]` /
/// `[where]` / `[howmuch]` lines, everything between sections being the
/// hook source. Returns "" and fills `out` on success, else the error.
std::string load_policy(const std::string& name_or_path,
                        core::MantlePolicy& out);

}  // namespace mantle::safety

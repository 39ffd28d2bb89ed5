#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/invariant.hpp"
#include "common/time.hpp"
#include "mds/types.hpp"

/// \file chaos.hpp
/// Deterministic chaos engine: generates randomized fault schedules —
/// seeded crashes and restarts, heartbeat drop/duplicate/delay windows,
/// freely composed and time-jittered — runs each against a real scenario
/// (create-heavy, compile, fault-recovery) with the cluster-wide
/// InvariantChecker polling every balancer tick, and delta-debugs any
/// violating schedule down to a minimal reproducer.
///
/// Determinism is the load-bearing property. A schedule is pure data:
/// injection consults the event windows against the simulated clock and
/// draws *no* randomness of its own, so removing one event from a
/// schedule leaves every other fault exactly in place. That is what makes
/// greedy event-removal shrinking faithful, and what makes two runs of
/// the same (seed, iters, scenarios) produce byte-identical reproducer
/// corpora — same guarantee, same shape as src/safety/fuzz.

namespace mantle::chaos {

using mantle::mds::MdsRank;

enum class FaultKind : int {
  Crash = 0,  ///< kill an MDS at `at`
  Restart,    ///< bring an MDS back at `at` (no-op if it is not down)
  HbDrop,     ///< drop the rank's outgoing heartbeats in [at, until)
  HbDup,      ///< duplicate them in [at, until)
  HbDelay,    ///< add `delay` to them in [at, until)
};

const char* fault_kind_name(FaultKind kind);

struct ChaosEvent {
  FaultKind kind = FaultKind::Crash;
  MdsRank rank = 0;  ///< target rank
  Time at = 0;       ///< instant (Crash/Restart) or window start
  Time until = 0;    ///< window end; 0 for instant kinds
  Time delay = 0;    ///< HbDelay only: extra latency

  bool operator==(const ChaosEvent&) const = default;

  /// Canonical rendering, e.g. "hb-delay rank=1 at_us=3000000
  /// until_us=5000000 delay_us=900000".
  std::string str() const;
};

struct ChaosSchedule {
  std::uint64_t seed = 0;  ///< seeds the simulation
  std::vector<ChaosEvent> events;

  /// Canonical one-line rendering: events joined with "; ".
  std::string str() const;
};

enum class ScenarioKind : int { CreateHeavy = 0, Compile, FaultRecovery };

const char* scenario_name(ScenarioKind kind);
/// Accepts "create-heavy", "compile", "fault-recovery" ('_' tolerated for
/// '-'). Returns false on anything else.
bool parse_scenario(const std::string& name, ScenarioKind& out);

struct ChaosConfig {
  std::uint64_t seed = 1;
  /// Schedules to run, round-robined across `scenarios`.
  std::uint64_t iters = 200;
  std::vector<ScenarioKind> scenarios = {
      ScenarioKind::CreateHeavy, ScenarioKind::Compile,
      ScenarioKind::FaultRecovery};
  /// Satellite toggle: run with the stale-heartbeat guard disabled to
  /// reintroduce the seeded bug the shrinker must rediscover.
  bool hb_stale_guard = true;
  /// Stop after this many violations (each one is shrunk, which costs
  /// re-executions).
  std::size_t max_violations = 8;
};

/// One violating schedule, shrunk to a minimal reproducer.
struct ChaosViolation {
  std::uint64_t iteration = 0;
  ScenarioKind scenario = ScenarioKind::CreateHeavy;
  std::uint64_t seed = 0;  ///< the schedule seed (reproduces the run alone)
  std::string invariant;
  std::string detail;
  Time at = 0;
  std::size_t original_events = 0;
  ChaosSchedule shrunk;

  /// Canonical one-line reproducer (the corpus line / CI artifact).
  std::string reproducer() const;
};

struct ChaosResult {
  std::uint64_t schedules = 0;       ///< schedules executed (incl. shrinking)
  std::uint64_t faults_injected = 0;
  std::uint64_t checks = 0;          ///< invariant evaluations
  std::uint64_t shrink_runs = 0;     ///< re-executions spent shrinking
  std::vector<ChaosViolation> violations;

  bool ok() const { return violations.empty(); }

  /// One reproducer line per violation, in discovery order. Byte-identical
  /// across runs with the same config.
  std::string corpus() const;

  /// Deterministic JSON (name-ordered keys).
  std::string to_json() const;
};

/// Outcome of one schedule against one scenario (exposed for tests).
struct RunOutcome {
  bool violated = false;
  Violation first;  ///< first violation when violated
  std::uint64_t checks = 0;
  std::uint64_t faults_injected = 0;
  Time makespan = 0;
};

/// Generate one randomized schedule. Pure function of its arguments.
ChaosSchedule generate_schedule(std::uint64_t seed, int num_mds,
                                int max_events);

/// Run one schedule through one scenario: inject, poll invariants every
/// balancer tick, quiesce (restart every down rank, drain), final checks.
RunOutcome run_schedule(ScenarioKind kind, const ChaosSchedule& schedule,
                        bool hb_stale_guard = true);

/// Greedy event-removal delta debugging to a fixpoint: keep dropping any
/// single event whose removal still violates some invariant. `runs` (if
/// non-null) accumulates the re-executions spent.
ChaosSchedule shrink_schedule(ScenarioKind kind, const ChaosSchedule& schedule,
                              bool hb_stale_guard = true,
                              std::uint64_t* runs = nullptr);

/// Run the full sweep: schedules of 1 to 5 events each, and every
/// violating schedule delta-debugged to a minimal reproducer.
ChaosResult run_chaos(const ChaosConfig& cfg = {});

}  // namespace mantle::chaos

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mantle.hpp"
#include "hook_timer.hpp"
#include "sim/scenario.hpp"

/// \file runner.hpp
/// The benchmark's workloads and one measured run of each. A run builds
/// the workload's scenario from a seed (classic single-queue engine, one
/// thread), runs it to completion plus a 2PC drain, serializes the five
/// deterministic dump documents and checks the correctness gate. A traced
/// run additionally enables the phase profiler, wraps every policy in a
/// HookTimer and times the public MdsCluster walk functions once per
/// balancer interval; none of that may change the trajectory.

namespace mantle::perfbench {

/// Metric name -> value. Names are the ones BENCHMARK.json declares.
using Metrics = std::map<std::string, double>;

/// A benchmark workload and the number of seeded trajectories one run
/// of it measures. The simulated metrics are means over those
/// trajectories: a single balancing trajectory is chaotic in its seed
/// (the paper's Figure 4), a mean over several is steady.
struct WorkloadDef {
  std::string name;
  int trajectories = 1;
};

/// The benchmark workloads, in BENCHMARK.json order.
const std::vector<WorkloadDef>& workloads();

/// Seed of trajectory `k` of a run started with `seed`.
std::uint64_t trajectory_seed(std::uint64_t seed, int k);

/// A host time in CPU seconds of the benchmark's one thread: as measured,
/// and converted to the reference host's speed.
struct HostTime {
  double host_s = 0;
  double scaled_s = 0;
  HostTime& operator+=(const HostTime& o) {
    host_s += o.host_s;
    scaled_s += o.scaled_s;
    return *this;
  }
};

/// Median (mean of the middle two for an even count; 0 when empty).
double median(std::vector<double> v);
/// Median of each field on its own.
HostTime median(const std::vector<HostTime>& v);

/// Thread CPU seconds of a small fixed reference computation: number
/// formatting, hashing and a sort, the mix of the simulator and its dumps.
/// The faster of two back-to-back runs.
double reference_s();

/// reference_s() on the 4-CPU host the benchmark was defined on, when that
/// host was quiet.
inline constexpr double kReferenceS = 0.00027;

/// `host_s` seconds of CPU time, measured just now, together with the
/// same time at the reference host's speed: times reference_s() right away
/// and scales the `core_share` of host_s that follows the core's speed by
/// kReferenceS / reference_s(). The speed of a shared host swings within
/// seconds, even in CPU time, so every measured section is scaled by a
/// reference taken next to it.
HostTime at_reference_speed(double host_s, double core_share = 1.0);

// -- Building blocks (shared with transparency_test.cpp) ----------------------

/// Install `policy` as a Lua MantleBalancer on every rank. With `timers`
/// non-null each policy is wrapped in a HookTimer, whose addresses are
/// appended to `timers` (the cluster owns them).
void install_policy(sim::Scenario& s, const core::MantlePolicy& policy,
                    std::vector<HookTimer*>* timers);

/// Host time spent in the public MdsCluster walk functions by the traced
/// run's snapshot probe.
struct WalkStats {
  std::uint64_t snapshots = 0;
  std::uint64_t subtree_pop_calls = 0;
  std::uint64_t subtree_pop_ns = 0;
  std::uint64_t entry_count_calls = 0;
  std::uint64_t entry_count_ns = 0;
  std::uint64_t auth_entry_count_calls = 0;
  std::uint64_t auth_entry_count_ns = 0;
  std::uint64_t gather_ns = 0;
  std::uint64_t gather_candidates = 0;
};

/// Per-second probe installed on every run, timed and traced alike, so
/// both dispatch the same events. Each firing records the coefficient of
/// variation of per-rank completions over the past second and the
/// populations' in-flight slots. With `walks` set, every `walk_every`-th
/// firing also takes one snapshot: it times auth_entry_count on every
/// rank, then subtree_pop / subtree_entry_count on each subtree root of
/// the rank with the most authoritative entries and gather_candidates for
/// that rank with a fresh native policy.
class Probe {
 public:
  Probe(sim::Scenario& s, int walk_every, bool walks);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Start timing: until stop(), the thread's CPU time is summed in
  /// segments between firings, each scaled by at_reference_speed() at its
  /// end with `core_share`. The reference samples themselves are left out.
  void start(double core_share);
  /// Stop timing; returns the time since start().
  HostTime stop();

  /// Mean over firings of the per-rank completion CV.
  double imbalance_cv() const;
  std::size_t pop_outstanding_max() const { return outstanding_max_; }
  /// Firings at which some population had every slot in flight, so its
  /// open-loop generator was carrying arrivals over (running late).
  std::uint64_t pop_slot_saturated() const { return saturated_; }
  const WalkStats& walks() const { return walks_; }

 private:
  void fire();
  void lap();
  void snapshot();

  sim::Scenario& s_;
  int walk_every_;
  bool walks_on_;
  std::vector<std::uint64_t> prev_;
  std::vector<double> cv_;
  std::size_t outstanding_max_ = 0;
  std::uint64_t saturated_ = 0;
  WalkStats walks_;
  bool timing_ = false;
  double core_share_ = 1.0;
  double mark_ = 0;
  HostTime timed_;
};

/// The five deterministic dump documents, in a fixed order: metrics JSON,
/// Prometheus text, trace JSON, Perfetto JSON, provenance JSON.
inline constexpr int kNumDumps = 5;
const char* dump_name(int which);
std::string serialize_dump(const cluster::MdsCluster& c, int which);

// -- Measured runs ------------------------------------------------------------

struct RunResult {
  std::string params;  ///< the workload's fixed parameters, as JSON
  HostTime setup;
  HostTime wall;
  HostTime dump;
  /// FNV-1a over the five dump documents: the determinism oracle.
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t modeled_ops = 0;  ///< completed, weight-scaled for populations
  std::uint64_t attempted = 0;  ///< client ops + population requests
  std::uint64_t failed = 0;
  std::uint64_t lat_samples = 0;  ///< pooled latency samples retained
  std::uint64_t lat_count = 0;    ///< latencies observed (before sampling)
  bool trace_truncated = false;
  bool provenance_truncated = false;
  bool pop_saturated = false;
  /// End-to-end metrics in simulated time (repeat exactly for a seed).
  Metrics sim;
  /// Per-layer metrics (traced runs only).
  Metrics layers;
  /// Correctness-gate failures; empty when the run is correct.
  std::vector<std::string> failures;
};

/// One full run of `workload` with `seed`.
RunResult run_workload(const std::string& workload, std::uint64_t seed,
                       bool traced);

/// Construct the workload's scenario and tear it down without running it;
/// returns the construction time (one more setup_s sample).
HostTime setup_workload(const std::string& workload, std::uint64_t seed);

}  // namespace mantle::perfbench

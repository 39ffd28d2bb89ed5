#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "mds/types.hpp"

namespace mantle::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace mantle::obs

/// \file balancer.hpp
/// The policy boundary. CephFS hard-wires balancing policy into the MDS
/// ("the problem is that the policies are hardwired into the system, not
/// the policies themselves"); Mantle splits it into the five decisions
/// listed below. Everything in this header is *policy-facing data*: the
/// mechanisms (heartbeats, freezing, two-phase-commit migration, dirfrag
/// traversal) live in MdsNode / Migrator and never change.

namespace mantle::cluster {

using mantle::Time;
using mantle::mds::DirFragId;
using mantle::mds::MdsRank;

/// Decayed per-op popularity of one dirfrag/subtree at policy-evaluation
/// time — the inputs available to mds_bal_metaload (paper Table 2:
/// IRD, IWR, READDIR, FETCH, STORE).
struct PopSnapshot {
  double ird = 0.0;
  double iwr = 0.0;
  double readdir = 0.0;
  double fetch = 0.0;
  double store = 0.0;
};

/// One MDS's heartbeat payload: what every other MDS learns about it.
/// By design this is a *snapshot taken at send time* and therefore stale
/// on arrival — the staleness the paper blames for erratic decisions is
/// real in this simulator, not modelled noise.
struct HeartbeatPayload {
  MdsRank rank = mantle::mds::kNoRank;
  double auth_metaload = 0.0;  // metadata load on authority subtrees
  double all_metaload = 0.0;   // metadata load incl. replicated/nested
  double cpu_pct = 0.0;        // instantaneous CPU utilization, 0..100
  double mem_pct = 0.0;        // cache occupancy, 0..100
  double queue_len = 0.0;      // requests waiting at snapshot time
  double req_rate = 0.0;       // requests/s over the last interval
  Time sent_at = 0;
  /// Sender incarnation (its crash count at send time). A heartbeat
  /// duplicated or delayed from before a crash carries the old epoch and
  /// is rejected on arrival instead of resurrecting pre-crash load state
  /// after a successor has taken over (ClusterConfig::hb_stale_guard).
  std::uint64_t epoch = 0;
};

/// The cluster as one MDS sees it when its balancer runs: its own fresh
/// metrics plus the last heartbeat received from everyone else.
struct ClusterView {
  MdsRank whoami = 0;
  Time now = 0;
  std::vector<HeartbeatPayload> mdss;  // index = rank; [whoami] is fresh
  std::vector<double> loads;           // result of the mdsload policy
  double total_load = 0.0;
  /// Laggy-peer detection: ranks whose last heartbeat is older than three
  /// balance intervals are marked dead-or-laggy (0). Their
  /// `loads` entry is zeroed, they are excluded from `total_load`, and the
  /// mechanism refuses to export toward them regardless of what the
  /// policy's where() says. Empty = everyone presumed alive (views built
  /// by tests or the policy validator).
  std::vector<std::uint8_t> alive;

  std::size_t size() const { return mdss.size(); }

  bool is_alive(std::size_t rank) const {
    return rank >= alive.size() || alive[rank] != 0;
  }

  std::size_t alive_count() const {
    if (alive.empty()) return mdss.size();
    std::size_t n = 0;
    for (const std::uint8_t a : alive) n += a != 0;
    return n;
  }
};

/// An export candidate discovered while partitioning the namespace:
/// a dirfrag plus the (policy-computed) load it would carry away.
struct ExportCandidate {
  DirFragId frag;
  double load = 0.0;
  std::size_t entries = 0;
};

/// Balancing policy. One instance per MDS node (policies may keep
/// per-node state, e.g. Fill & Spill's consecutive-overload counter).
class Balancer {
 public:
  virtual ~Balancer() = default;

  virtual std::string name() const = 0;

  /// Cumulative evaluation-cost counters, sampled by the provenance
  /// recorder before and after each balancer tick so every
  /// DecisionRecord carries the Lua steps / cache traffic / hook
  /// errors *that decision* cost. Native (C++) policies report zeros.
  struct EvalStats {
    std::uint64_t lua_steps = 0;
    std::uint64_t hook_errors = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_recompiles = 0;
  };
  virtual EvalStats eval_stats() const { return {}; }

  /// mds_bal_metaload: scalar load of one dirfrag/subtree.
  virtual double metaload(const PopSnapshot& pop) const = 0;

  /// mds_bal_mdsload: scalar load of one MDS from its heartbeat.
  virtual double mdsload(const HeartbeatPayload& hb) const = 0;

  /// mds_bal_when: should this MDS migrate anything this tick?
  /// `view.loads` and `view.total_load` are already filled via mdsload().
  virtual bool when(const ClusterView& view) = 0;

  /// mds_bal_where: how much load to ship to each rank. Return value is
  /// indexed by rank; entries <= 0 mean "send nothing there".
  virtual std::vector<double> where(const ClusterView& view) = 0;

  /// mds_bal_howmuch: the dirfrag-selector strategies to try when picking
  /// which candidates to ship toward a target load. The mechanism runs
  /// every listed selector and keeps the one whose shipped load lands
  /// closest to the target (paper §3.2).
  virtual std::vector<std::string> howmuch() const = 0;

  /// Called when the balancer is installed on a node: policies that keep
  /// their own instrumentation (e.g. Mantle's per-hook timing and
  /// sanitization counters) register it against the cluster's registry
  /// and trace sink here. Either pointer may be null; the default is a
  /// no-op so plain policies need not care.
  virtual void attach_observability(obs::MetricsRegistry* /*metrics*/,
                                    obs::TraceSink* /*trace*/) {}
};

/// A dirfrag selector: given candidates (sorted by descending load) and a
/// target load, choose which to export. Returns indices into `candidates`.
/// The four selectors are the paper's big_first / small_first / big_small /
/// half (also spelled "big" and "small"); any other name selects nothing.
std::vector<std::size_t> run_selector(const std::string& name,
                                      const std::vector<ExportCandidate>& candidates,
                                      double target);

/// Total load of a selection.
double selection_load(const std::vector<ExportCandidate>& candidates,
                      const std::vector<std::size_t>& picks);

/// Run every selector in `names` and return the picks whose total load is
/// closest to `target` (absolute distance). Empty result if no selector
/// picks anything.
std::vector<std::size_t> best_selection(const std::vector<std::string>& names,
                                        const std::vector<ExportCandidate>& candidates,
                                        double target);

}  // namespace mantle::cluster

#pragma once

#include <map>
#include <vector>

#include "cluster/cluster.hpp"

/// \file candidate_cache.hpp
/// Export-candidate gathering for one balancer tick. A tick asks for one
/// candidate pool per export target, and on a large cluster the `where`
/// hook hands out hundreds of targets per tick. Every pool is built from
/// the same rank-owned roots, subtree walks and child lists, so the cache
/// computes each of those once per tick and re-runs only what a target
/// changes: the drill-down against its goal and one metaload() call per
/// candidate.

namespace mantle::cluster {

/// Tick-scoped memo behind MdsCluster::gather_candidates. It lives on the
/// caller's stack for one simulated instant and relies on what the
/// cluster guarantees within it: between an export_subtree() that returns
/// true and that migration's commit, auth annotations, the subtree map,
/// popularity and entry counts stay unchanged, and frozen status only
/// grows (to the exported frag and its descendants). Callers report each
/// accepted export through exported(); nothing else may change the
/// cluster while the cache is alive.
///
/// Pools are exactly what a fresh per-target walk returns: same frags,
/// bitwise-equal loads, same entries and order. The policy's metaload()
/// still runs once per candidate per pool, in walk order, so stateful
/// policies and their evaluation counters see the same calls.
class CandidateCache {
 public:
  CandidateCache(const MdsCluster& cluster, MdsRank rank, Time now);

  /// The export-candidate pool for `target`: the rank's subtree roots,
  /// drilled into wherever a candidate is too hot to move whole, frozen
  /// and foreign fragments excluded, sorted by descending load.
  std::vector<ExportCandidate> pool(double target, const Balancer& policy);

  /// An export_subtree() of `frag` returned true: it and its descendants
  /// are frozen for the rest of the tick.
  void exported(const DirFragId& frag) { in_flight_.push_back(frag); }

 private:
  struct Entry {
    bool frozen = false;
    std::size_t checked = 0;  // prefix of in_flight_ already tested
    bool measured = false;
    PopSnapshot pop;
    std::size_t entries = 0;
    bool listed = false;
    bool missing = false;             // no such frag in the namespace
    std::vector<DirFragId> children;  // child frags owned by rank_
  };

  bool frozen(const DirFragId& id, Entry& e);
  void measure(const DirFragId& id, Entry& e);
  void list_children(const DirFragId& id, Entry& e);

  const MdsCluster& cluster_;
  MdsRank rank_;
  Time now_;
  std::vector<DirFragId> roots_;
  /// Frags of the migrations in flight: those open when the cache was
  /// built, then each exported() one. Everything below them is frozen.
  std::vector<DirFragId> in_flight_;
  std::map<DirFragId, Entry> entries_;
};

}  // namespace mantle::cluster

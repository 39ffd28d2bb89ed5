#pragma once

#include <memory>

#include "cluster/balancer.hpp"

/// \file builtin.hpp
/// Native C++ implementations of every balancing policy the paper
/// evaluates. These serve two purposes: (1) the "policies tied to
/// mechanisms" baseline the paper criticizes (OriginalBalancer is Table 1
/// verbatim), and (2) ground truth for differential tests against the
/// same policies expressed as Mantle/Lua scripts — both forms must make
/// identical decisions on identical views.

namespace mantle::balancers {

using cluster::Balancer;
using cluster::ClusterView;
using cluster::HeartbeatPayload;
using cluster::PopSnapshot;

/// The hard-coded CephFS balancer of Table 1:
///   metaload = IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE
///   MDSload  = 0.8*auth + 0.2*all + req_rate + 10*queue_len
///   when     = my load > total/#MDS
///   where    = match exporters to importers; send my excess toward each
///              importer's deficit
///   howmuch  = biggest dirfrags first
class OriginalBalancer final : public Balancer {
 public:
  std::string name() const override { return "cephfs-original"; }
  double metaload(const PopSnapshot& pop) const override;
  double mdsload(const HeartbeatPayload& hb) const override;
  bool when(const ClusterView& view) override;
  std::vector<double> where(const ClusterView& view) override;
  std::vector<std::string> howmuch() const override { return {"big_first"}; }
};

/// Listing 1 — Greedy Spill (GIGA+-style uniform spilling):
///   metaload = IWR; mdsload = all metaload;
///   when  = I have load and my right neighbour has none;
///   where = send half my load to the right neighbour;
///   howmuch = "half" (ship exactly half the dirfrags).
class GreedySpillBalancer final : public Balancer {
 public:
  std::string name() const override { return "greedy-spill"; }
  double metaload(const PopSnapshot& pop) const override { return pop.iwr; }
  double mdsload(const HeartbeatPayload& hb) const override {
    return hb.all_metaload;
  }
  bool when(const ClusterView& view) override;
  std::vector<double> where(const ClusterView& view) override;
  std::vector<std::string> howmuch() const override { return {"half"}; }
};

/// Listing 2 — Greedy Spill, Evenly: like Greedy Spill, but the target is
/// found by bisecting the cluster: whoami + ceil(remaining/2), walking
/// back toward whoami past already-loaded nodes, so load doubles across
/// the cluster instead of halving along a chain.
///
/// Note: the listing as printed walks the candidate index down `while
/// MDSs[t] < .01` which can never reach its own `MDSs[t]["load"] < .01`
/// success condition; the search as *described* in the text ("iterates
/// over a subset of the MDS nodes in its search for an underutilized
/// MDS") walks past loaded nodes. We implement the described semantics
/// (see EXPERIMENTS.md).
class GreedySpillEvenBalancer final : public Balancer {
 public:
  std::string name() const override { return "greedy-spill-even"; }
  double metaload(const PopSnapshot& pop) const override { return pop.iwr; }
  double mdsload(const HeartbeatPayload& hb) const override {
    return hb.all_metaload;
  }
  bool when(const ClusterView& view) override;
  std::vector<double> where(const ClusterView& view) override;
  std::vector<std::string> howmuch() const override { return {"half"}; }

  /// The bisection target for a given rank/cluster size (1-based math as
  /// in the listing); returns kNoRank when the listing's formula lands on
  /// an undefined (fractional) index.
  static mantle::mds::MdsRank bisect_target(int whoami0, int n);

 private:
  mantle::mds::MdsRank target_ = mantle::mds::kNoRank;  // found by when()
};

/// Listing 3 — Fill & Spill (LARD-flavoured): fill one MDS to a CPU
/// threshold, then spill a fixed fraction of load to the next MDS; a
/// 3-iteration hold (WRstate/RDstate in the Lua version) keeps the
/// balancer from over-reacting to its own stale heartbeats.
class FillSpillBalancer final : public Balancer {
 public:
  struct Options {
    double cpu_threshold = 48.0;  // from the paper's capacity study (§2.2.3)
    double spill_fraction = 0.25; // paper: 25% beats 10%
    /// Confirmations required before spilling: the first overloaded tick
    /// arms the hold and each further consecutive overloaded tick counts
    /// it down, so spilling starts on overloaded tick hold_iterations+1
    /// ("overloaded for 3 straight iterations" with the default 2). Any
    /// cool tick re-arms the full hold.
    int hold_iterations = 2;
  };

  FillSpillBalancer() : FillSpillBalancer(Options{}) {}
  explicit FillSpillBalancer(Options opt)
      : opt_(opt), wait_(opt.hold_iterations) {}

  std::string name() const override { return "fill-and-spill"; }
  double metaload(const PopSnapshot& pop) const override {
    return pop.ird + pop.iwr;
  }
  double mdsload(const HeartbeatPayload& hb) const override {
    return hb.all_metaload;
  }
  bool when(const ClusterView& view) override;
  std::vector<double> where(const ClusterView& view) override;
  std::vector<std::string> howmuch() const override {
    return {"small_first"};  // spill small units to shed just enough
  }

  int state_wait() const { return wait_; }

 private:
  Options opt_{};
  int wait_ = 0;   // the WRstate/RDstate counter of Listing 3; armed to
                   // hold_iterations by the constructors and on cool ticks
  bool go_ = false;
};

/// Listing 4 — Adaptable balancer (simplified original CephFS policy):
/// a single severely-overloaded MDS (more than half the cluster load, and
/// the maximum) sheds load toward everyone's deficit. Aggressiveness is
/// tunable to reproduce the three behaviours of Figure 10.
class AdaptableBalancer final : public Balancer {
 public:
  enum class Mode {
    kConservative,  // adds a minimum-offload gate: one big migration late
    kAggressive,    // Listing 4 as written: distribute on majority-load
    kTooAggressive, // rebalance on any imbalance: constant churn
  };

  struct Options {
    Mode mode = Mode::kAggressive;
    double min_offload = 0.0;  // absolute load gate for kConservative
  };

  AdaptableBalancer() = default;
  explicit AdaptableBalancer(Options opt) : opt_(opt) {}

  std::string name() const override { return "adaptable"; }
  double metaload(const PopSnapshot& pop) const override {
    return pop.iwr + pop.ird;
  }
  double mdsload(const HeartbeatPayload& hb) const override {
    return hb.all_metaload;
  }
  bool when(const ClusterView& view) override;
  std::vector<double> where(const ClusterView& view) override;
  std::vector<std::string> howmuch() const override {
    return {"half", "small_first", "big_first", "big_small"};
  }

 private:
  Options opt_{};
};

}  // namespace mantle::balancers

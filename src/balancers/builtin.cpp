#include "balancers/builtin.hpp"

#include <algorithm>
#include <cmath>

namespace mantle::balancers {

using mantle::mds::kNoRank;
using mantle::mds::MdsRank;

namespace {
constexpr double kIdle = 0.01;  // the ".01" idleness threshold of the listings

/// Views built by tests, the policy validator, or a shrunken cluster can
/// carry a whoami outside [0, size()) — indexing view.loads[whoami] would
/// then be UB. Every policy treats such a view as "nothing to do".
bool self_in_view(const cluster::ClusterView& view) {
  return view.whoami >= 0 &&
         static_cast<std::size_t>(view.whoami) < view.size();
}

}  // namespace

// ---------------------------------------------------------------------------
// OriginalBalancer (Table 1)
// ---------------------------------------------------------------------------

double OriginalBalancer::metaload(const PopSnapshot& p) const {
  return p.ird + 2.0 * p.iwr + p.readdir + 2.0 * p.fetch + 4.0 * p.store;
}

double OriginalBalancer::mdsload(const HeartbeatPayload& hb) const {
  return 0.8 * hb.auth_metaload + 0.2 * hb.all_metaload + hb.req_rate +
         10.0 * hb.queue_len;
}

bool OriginalBalancer::when(const ClusterView& view) {
  if (!self_in_view(view)) return false;  // degenerate view: nothing to do
  const double avg = view.total_load / static_cast<double>(view.size());
  return view.loads[static_cast<std::size_t>(view.whoami)] > avg;
}

std::vector<double> OriginalBalancer::where(const ClusterView& view) {
  // Partition the cluster into exporters and importers around the mean and
  // hand my excess to importers in proportion to their deficit.
  std::vector<double> targets(view.size(), 0.0);
  if (!self_in_view(view)) return targets;
  const double avg = view.total_load / static_cast<double>(view.size());
  const double my = view.loads[static_cast<std::size_t>(view.whoami)];
  const double excess = my - avg;
  // NaN-safe: a corrupted mean must fail toward "export nothing".
  if (!(excess > 0.0) || !std::isfinite(excess)) return targets;
  double total_deficit = 0.0;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (static_cast<MdsRank>(i) == view.whoami) continue;
    total_deficit += std::max(0.0, avg - view.loads[i]);
  }
  if (total_deficit <= 0.0) return targets;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (static_cast<MdsRank>(i) == view.whoami) continue;
    const double deficit = std::max(0.0, avg - view.loads[i]);
    targets[i] = excess * (deficit / total_deficit);
  }
  return targets;
}

// ---------------------------------------------------------------------------
// GreedySpillBalancer (Listing 1)
// ---------------------------------------------------------------------------

bool GreedySpillBalancer::when(const ClusterView& view) {
  if (!self_in_view(view)) return false;
  const auto me = static_cast<std::size_t>(view.whoami);
  const std::size_t next = me + 1;
  if (next >= view.size()) return false;  // MDSs[whoami+1] undefined
  return view.loads[me] > kIdle && view.loads[next] < kIdle;
}

std::vector<double> GreedySpillBalancer::where(const ClusterView& view) {
  std::vector<double> targets(view.size(), 0.0);
  if (!self_in_view(view)) return targets;
  const auto me = static_cast<std::size_t>(view.whoami);
  if (me + 1 < view.size())
    targets[me + 1] = view.mdss[me].all_metaload / 2.0;
  return targets;
}

// ---------------------------------------------------------------------------
// GreedySpillEvenBalancer (Listing 2)
// ---------------------------------------------------------------------------

MdsRank GreedySpillEvenBalancer::bisect_target(int whoami0, int n) {
  const int whoami1 = whoami0 + 1;  // the listing is 1-based
  const double t = (static_cast<double>(n - whoami1 + 1) / 2.0) +
                   static_cast<double>(whoami1);
  if (t != std::floor(t)) return kNoRank;  // undefined MDS index
  int t1 = static_cast<int>(t);
  if (t1 > n) t1 = whoami1;
  return t1 - 1;  // back to 0-based
}

bool GreedySpillEvenBalancer::when(const ClusterView& view) {
  if (!self_in_view(view)) return false;
  const auto me = static_cast<std::size_t>(view.whoami);
  MdsRank t = bisect_target(view.whoami, static_cast<int>(view.size()));
  if (t == kNoRank) return false;
  // Walk back toward whoami past nodes that already carry load, searching
  // for an underutilized MDS in my half (see the header note about the
  // listing's printed loop condition).
  while (t != view.whoami && view.loads[static_cast<std::size_t>(t)] >= kIdle)
    --t;
  target_ = t;
  return view.loads[me] > kIdle &&
         view.loads[static_cast<std::size_t>(t)] < kIdle && t != view.whoami;
}

std::vector<double> GreedySpillEvenBalancer::where(const ClusterView& view) {
  std::vector<double> targets(view.size(), 0.0);
  if (!self_in_view(view)) return targets;
  if (target_ != kNoRank && target_ != view.whoami &&
      static_cast<std::size_t>(target_) < view.size())
    targets[static_cast<std::size_t>(target_)] =
        view.loads[static_cast<std::size_t>(view.whoami)] / 2.0;
  return targets;
}

// ---------------------------------------------------------------------------
// FillSpillBalancer (Listing 3)
// ---------------------------------------------------------------------------

bool FillSpillBalancer::when(const ClusterView& view) {
  if (!self_in_view(view)) return false;
  const auto me = static_cast<std::size_t>(view.whoami);
  go_ = false;
  if (view.mdss[me].cpu_pct > opt_.cpu_threshold) {
    if (wait_ > 0) {
      --wait_;  // overloaded, but hold for consecutive confirmations
    } else {
      wait_ = opt_.hold_iterations;
      go_ = true;
    }
  } else {
    wait_ = opt_.hold_iterations;
  }
  if (me + 1 >= view.size()) go_ = false;  // nowhere to spill
  return go_;
}

std::vector<double> FillSpillBalancer::where(const ClusterView& view) {
  std::vector<double> targets(view.size(), 0.0);
  if (!self_in_view(view)) return targets;
  const auto me = static_cast<std::size_t>(view.whoami);
  if (me + 1 < view.size())
    targets[me + 1] = view.loads[me] * opt_.spill_fraction;
  return targets;
}

// ---------------------------------------------------------------------------
// AdaptableBalancer (Listing 4)
// ---------------------------------------------------------------------------

bool AdaptableBalancer::when(const ClusterView& view) {
  if (!self_in_view(view)) return false;
  const double my = view.loads[static_cast<std::size_t>(view.whoami)];
  double max_load = 0.0;
  for (const double l : view.loads) max_load = std::max(max_load, l);
  switch (opt_.mode) {
    case Mode::kConservative:
      // A minimum-offload gate keeps metadata on one MDS until a load
      // spike makes distribution unavoidable (Figure 10, top).
      return my > view.total_load / 2.0 && my >= max_load &&
             my > opt_.min_offload;
    case Mode::kAggressive:
      // Listing 4: only the single majority holder migrates.
      return my > view.total_load / 2.0 && my >= max_load;
    case Mode::kTooAggressive:
      // Chases perfect balance: anyone above the mean exports every tick
      // (Figure 10, bottom: thrash, forwards, high variance).
      return my > view.total_load / static_cast<double>(view.size());
  }
  return false;
}

std::vector<double> AdaptableBalancer::where(const ClusterView& view) {
  std::vector<double> targets(view.size(), 0.0);
  if (!self_in_view(view)) return targets;
  const double target_load =
      view.total_load / static_cast<double>(view.size());
  // A non-finite mean (total_load overflowed, e.g. many near-DBL_MAX
  // loads summed) would turn every deficit into an infinite export goal.
  if (!std::isfinite(target_load)) return targets;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (static_cast<MdsRank>(i) == view.whoami) continue;
    if (view.loads[i] < target_load) targets[i] = target_load - view.loads[i];
  }
  return targets;
}

}  // namespace mantle::balancers

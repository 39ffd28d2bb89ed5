#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

/// \file fault.hpp
/// Fault injection for the simulated cluster. A FaultPlan is a declarative
/// description of everything that goes wrong during a run — MDS crashes
/// and restarts at fixed simulated times, probabilistic heartbeat
/// drop/duplication/extra delay, and transient object-store op failures —
/// and a FaultInjector arms it against a cluster. All randomness comes
/// from the plan's own seed, so (seed, plan) -> identical fault sequence,
/// which keeps fault runs as replayable as fault-free ones.
///
/// The injector deliberately lives *outside* the cluster: the cluster
/// exposes mechanisms (crash_mds/restart_mds, the NetworkFaults interface,
/// the ObjectStore fault hook) and this layer decides when to pull them.

namespace mantle::fault {

using mantle::Rng;
using mantle::Time;
using mantle::mds::MdsRank;

/// Kill one MDS at a simulated time (queue + in-service request lost,
/// in-flight migrations aborted, takeover per ClusterConfig).
struct CrashEvent {
  Time at = 0;
  MdsRank rank = mantle::mds::kNoRank;
};

/// Bring a crashed MDS back at a simulated time; it replays its journal
/// before serving again.
struct RestartEvent {
  Time at = 0;
  MdsRank rank = mantle::mds::kNoRank;
};

struct FaultPlan {
  std::vector<CrashEvent> crashes;
  std::vector<RestartEvent> restarts;

  // -- heartbeat faults (evaluated per heartbeat send) ----------------------
  double hb_drop_prob = 0.0;       // message silently lost
  double hb_duplicate_prob = 0.0;  // delivered twice
  double hb_delay_prob = 0.0;      // extra delay on top of the normal path
  Time hb_delay_max = 0;           // extra delay uniform in (0, max]

  // -- transient object-store failures --------------------------------------
  double store_fail_prob = 0.0;    // probability an op fails (not applied)
  Time store_fail_from = 0;        // faults active in [from, until)
  Time store_fail_until = 0;       // 0 = no upper bound

  std::uint64_t seed = 42;         // injector's private rng stream
};

/// What the injector actually did, for assertions and reports.
struct FaultCounters {
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t hb_dropped = 0;
  std::uint64_t hb_duplicated = 0;
  std::uint64_t hb_delayed = 0;
  std::uint64_t store_faults = 0;
};

class FaultInjector : public cluster::NetworkFaults {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Install this injector on a cluster: registers the NetworkFaults
  /// interface and the ObjectStore fault hook, and schedules every crash
  /// and restart in the plan on the cluster's engine. Call once, before
  /// running the engine. The injector must outlive the cluster's run.
  void arm(cluster::MdsCluster& cluster);

  const FaultPlan& plan() const { return plan_; }
  /// Everything fired so far.
  const FaultCounters& counters() const { return counters_; }

  // -- NetworkFaults ---------------------------------------------------------
  bool drop_heartbeat(MdsRank from, MdsRank to) override;
  bool duplicate_heartbeat(MdsRank from, MdsRank to) override;
  Time extra_heartbeat_delay(MdsRank from, MdsRank to) override;

 private:
  bool store_faults_active() const;
  /// Record one fired fault in the cluster's metrics + trace timeline.
  void note_fault(const char* what, MdsRank rank);

  FaultPlan plan_;
  Rng rng_;
  FaultCounters counters_;
  cluster::MdsCluster* cluster_ = nullptr;
};

}  // namespace mantle::fault

#include "fault/fault.hpp"

#include "common/log.hpp"

namespace mantle::fault {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {}

void FaultInjector::arm(cluster::MdsCluster& cluster) {
  cluster_ = &cluster;
  cluster.set_network_faults(this);

  for (const CrashEvent& c : plan_.crashes) {
    cluster.engine().schedule_at(c.at, [this, c]() {
      if (cluster_->crash_mds(c.rank)) {
        ++counters_.crashes;
        note_fault("crash", c.rank);
      }
    });
  }
  for (const RestartEvent& r : plan_.restarts) {
    cluster.engine().schedule_at(r.at, [this, r]() {
      if (cluster_->restart_mds(r.rank)) {
        ++counters_.restarts;
        note_fault("restart", r.rank);
      }
    });
  }
}

void FaultInjector::note_fault(const char* what, MdsRank rank) {
  if (cluster_ == nullptr) return;
  cluster_->metrics()
      .counter("faults_injected_total", "faults the injector actually fired")
      .inc();
  cluster_->trace().event(cluster_->engine().now(),
                          obs::EventKind::FaultInjected, rank, -1, what);
}

bool FaultInjector::drop_heartbeat(MdsRank, MdsRank) {
  if (plan_.hb_drop_prob <= 0.0 || rng_.next_double() >= plan_.hb_drop_prob)
    return false;
  ++counters_.hb_dropped;
  return true;
}

bool FaultInjector::duplicate_heartbeat(MdsRank, MdsRank) {
  if (plan_.hb_duplicate_prob <= 0.0 ||
      rng_.next_double() >= plan_.hb_duplicate_prob)
    return false;
  ++counters_.hb_duplicated;
  return true;
}

Time FaultInjector::extra_heartbeat_delay(MdsRank, MdsRank) {
  if (plan_.hb_delay_prob <= 0.0 || plan_.hb_delay_max <= 0 ||
      rng_.next_double() >= plan_.hb_delay_prob)
    return 0;
  ++counters_.hb_delayed;
  return 1 + static_cast<Time>(
                 rng_.next_double() *
                 static_cast<double>(plan_.hb_delay_max - 1));
}

}  // namespace mantle::fault

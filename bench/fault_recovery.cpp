/// Robustness harness — crash/recovery timeline (no paper figure; this
/// exercises the fault layer the way fig07 exercises spill).
///
/// Kills one of three MDS ranks in the middle of a create-heavy shared
/// workload, restarts it later, and reports the throughput timeline
/// around the outage: steady state before the crash, the dip while the
/// rank is down, and the level after replay completes. Sweeps the client
/// retry timeout to show its effect on time-to-recover (a short timeout
/// resubmits parked ops sooner; 0 disables retries and strands in-flight
/// ops on the dead rank).

#include "fault/fault.hpp"
#include "harness.hpp"

using namespace mantle;

namespace {

struct FaultTimeline {
  double pre_tput = 0.0;    // completed ops/s in [2s, crash)
  double down_tput = 0.0;   // while the rank is dead
  double post_tput = 0.0;   // same-length window after replay completes
  double recover_s = 0.0;   // restart -> ReplayComplete
  double makespan_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  std::uint64_t aborted = 0;
};

FaultTimeline run_once(std::size_t files, Time retry_timeout, Time kCrashAt,
                       Time kRestartAt) {

  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 3;
  cfg.cluster.seed = 11;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  cfg.retry.timeout = retry_timeout;
  cfg.max_time = 10 * kMinute;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  for (int c = 0; c < 6; ++c)
    s.add_client(
        workloads::make_shared_create_workload(c, "/shared", files, 200));

  fault::FaultPlan plan;
  plan.seed = 11;
  plan.crashes.push_back({kCrashAt, 1});
  plan.restarts.push_back({kRestartAt, 1});
  fault::FaultInjector inj(plan);
  inj.arm(s.cluster());

  std::vector<std::pair<Time, std::uint64_t>> samples;
  s.add_probe(kSec / 2, [&](Time t) {
    samples.emplace_back(t, s.cluster().total_completed());
  });

  FaultTimeline tl;
  tl.makespan_s = to_seconds(s.run());
  // One file set per retry timeout: fault_recovery-retry<N>s-seed11-*.
  bench::dump_observability(
      "fault_recovery-retry" + std::to_string(retry_timeout / kSec) + "s",
      cfg.cluster.seed, s);
  for (const auto& c : s.clients()) {
    tl.completed += c->ops_completed();
    tl.failed += c->ops_failed();
    tl.retries += c->retries();
  }
  tl.dropped = s.cluster().requests_dropped();
  tl.aborted = s.cluster().aborted_migrations().size();

  Time recovered = kRestartAt;
  for (const auto& e : s.cluster().recovery_log())
    if (e.kind == cluster::RecoveryEvent::Kind::ReplayComplete)
      recovered = e.at;
  tl.recover_s = to_seconds(recovered - kRestartAt);

  auto ops_at = [&](Time t) -> double {
    std::uint64_t prev = 0;
    for (const auto& [st, n] : samples) {
      if (st > t) break;
      prev = n;
    }
    return static_cast<double>(prev);
  };
  const double w = to_seconds(kCrashAt - 2 * kSec);
  tl.pre_tput = (ops_at(kCrashAt) - ops_at(2 * kSec)) / w;
  tl.down_tput =
      (ops_at(kRestartAt) - ops_at(kCrashAt)) / to_seconds(kRestartAt - kCrashAt);
  const Time w0 = recovered + 2 * kSec;
  tl.post_tput = (ops_at(w0 + (kCrashAt - 2 * kSec)) - ops_at(w0)) / w;
  return tl;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  // The outage must sit in the middle of the run: quick mode shrinks the
  // workload, so the crash/restart times shrink with it.
  const std::size_t files = quick ? 12000 : 30000;
  const Time crash_at = quick ? 3 * kSec : 8 * kSec;
  const Time restart_at = quick ? 6 * kSec : 16 * kSec;

  std::printf(
      "# Fault recovery: crash mds1 of 3 at t=%.0fs, restart at t=%.0fs\n"
      "# (6 clients, shared create-heavy, original balancer)\n",
      to_seconds(crash_at), to_seconds(restart_at));
  std::printf("%9s %9s %10s %10s %10s %9s %8s %8s %8s %8s\n", "retry(s)",
              "mksp(s)", "pre(op/s)", "down(op/s)", "post(op/s)", "recov(s)",
              "retries", "dropped", "aborted", "failed");

  for (const Time timeout : {Time(0), kSec, 2 * kSec, 4 * kSec}) {
    const FaultTimeline tl = run_once(files, timeout, crash_at, restart_at);
    std::printf("%9.0f %9.1f %10.0f %10.0f %10.0f %9.2f %8llu %8llu %8llu %8llu\n",
                to_seconds(timeout), tl.makespan_s, tl.pre_tput, tl.down_tput,
                tl.post_tput, tl.recover_s,
                static_cast<unsigned long long>(tl.retries),
                static_cast<unsigned long long>(tl.dropped),
                static_cast<unsigned long long>(tl.aborted),
                static_cast<unsigned long long>(tl.failed));
  }
  std::printf(
      "\n# expectation: with retries on, post-recovery throughput returns to\n"
      "# the pre-fault level and no ops fail beyond losing shared-mkdir\n"
      "# races; retry(s)=0 strands in-flight ops (failed > 0, larger mksp\n"
      "# only bounded by the run ending)\n");
  return 0;
}

/// Ablation — heartbeat staleness (DESIGN.md §5.1).
///
/// The paper blames "decentralized MDS state ... slightly stale" views
/// for poor decisions (§2.2.2). This harness sweeps the heartbeat
/// delivery delay and the balancing interval under the original
/// balancer and reports decision churn (migrations), forwards and
/// runtime: the staler the view, the more the balancers overreact to
/// load that has already moved.

#include "harness.hpp"

using namespace mantle;

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const std::size_t files = quick ? 15000 : 25000;
  const std::vector<std::uint64_t> seeds = {5, 6, 7};

  std::printf("# Ablation: heartbeat staleness (original balancer, 3 MDS)\n");
  std::printf("%12s %12s %10s %9s %10s %10s\n", "hb delay", "interval",
              "runtime(s)", "rt sd", "migrations", "forwards");

  for (const Time interval : {kSec, 2 * kSec, 4 * kSec}) {
    for (const Time delay : {Time(10 * kMsec), Time(250 * kMsec), Time(interval)}) {
      bench::RunSpec spec;
      spec.label = "abl_heartbeat";
      spec.num_mds = 3;
      spec.base.bal_interval = interval;
      spec.base.hb_delay = delay;
      spec.base.split_size = quick ? 1500 : 5000;
      spec.balancer = [](int) {
        return std::make_unique<balancers::OriginalBalancer>();
      };
      spec.add_clients = [files](sim::Scenario& s) {
        for (int c = 0; c < 4; ++c)
          s.add_client(workloads::make_private_create_workload(c, files, 100));
      };
      const bench::SeededStats st = bench::run_seeds_parallel(spec, seeds);
      std::printf("%9.0fms %10.0fs %10.1f %9.2f %10.1f %10.0f\n",
                  to_seconds(delay) * 1e3, to_seconds(interval),
                  st.runtime.mean(), st.runtime.stddev(), st.migrations.mean(),
                  st.forwards.mean());
    }
  }
  std::printf(
      "\n# expectation: delay ~= interval (fully stale views) increases\n"
      "# migration churn and forwards relative to near-fresh views\n");
  return 0;
}

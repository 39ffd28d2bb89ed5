/// Ablation — instantaneous-measurement noise (DESIGN.md §5.2).
///
/// §2.2.2: "Instantaneous measurements ... make the balancer sensitive
/// to common system perturbations". Fill & Spill triggers on a CPU
/// threshold, so its decisions inherit the noise of the CPU metric.
/// Sweeping the measurement noise shows the decision flapping: with a
/// noisy metric the spill fires earlier/later per seed and run-to-run
/// variance rises.

#include "harness.hpp"

using namespace mantle;

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  // Quick runs last about 7 simulated seconds, 7 balancer ticks: Fill &
  // Spill holds for three overloaded ticks before it spills, so a run of
  // fewer than five ticks never migrates at any noise level.
  const std::size_t files = quick ? 15000 : 25000;
  const std::vector<std::uint64_t> seeds = {11, 12, 13, 14, 15, 16};

  std::printf("# Ablation: CPU measurement noise vs Fill & Spill stability\n");
  std::printf("%12s %12s %10s %12s %10s\n", "noise (pp)", "runtime(s)",
              "rt sd", "migrations", "mig sd");

  for (const double noise : {0.0, 2.0, 4.0, 10.0, 20.0}) {
    bench::RunSpec spec;
    spec.label = "abl_noise";
    spec.num_mds = 2;
    spec.base.bal_interval = kSec;
    spec.base.cpu_noise_pct = noise;
    spec.base.split_size = quick ? 2500 : 12500;
    spec.balancer = [](int) {
      // Two clients hold one MDS at ~45% CPU: right at the threshold,
      // where measurement noise decides whether the balancer fires.
      balancers::FillSpillBalancer::Options opt;
      opt.cpu_threshold = 46.0;
      return std::make_unique<balancers::FillSpillBalancer>(opt);
    };
    spec.add_clients = [files](sim::Scenario& s) {
      for (int c = 0; c < 2; ++c)
        s.add_client(workloads::make_shared_create_workload(c, "/shared", files, 100));
    };
    const bench::SeededStats st = bench::run_seeds_parallel(spec, seeds);
    std::printf("%12.1f %12.1f %10.3f %12.1f %10.2f\n", noise,
                st.runtime.mean(), st.runtime.stddev(), st.migrations.mean(),
                st.migrations.stddev());
  }
  std::printf(
      "\n# expectation: noise near the threshold raises run-to-run stddev of\n"
      "# both runtime and migration count (decision flapping)\n");
  return 0;
}

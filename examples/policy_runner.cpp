/// policy_runner: a small CLI for experimenting with balancer policies —
/// the "study different strategies on the same storage system" loop from
/// the paper, as a tool. Loads the five Mantle hooks from files (or uses
/// a named built-in), validates them, runs a chosen workload on a chosen
/// cluster size, and prints the outcome.
///
/// Usage:
///   policy_runner [--mds N] [--clients N] [--files N]
///                 [--workload create|shared|compile|maildir]
///                 [--policy greedy|greedy_even|fill_spill|adaptable|original]
///                 [--metaload FILE] [--mdsload FILE] [--when FILE]
///                 [--where FILE] [--howmuch FILE] [--seed N] [--validate-only]
///
/// Example: run your own `when` policy against the shared-dir create storm:
///   echo 'if MDSs[whoami+1] and MDSs[whoami]["load"]>.01 and
///         MDSs[whoami+1]["load"]<.01 then targets[whoami+1]=allmetaload/2 end' > my.when
///   ./policy_runner --mds 2 --workload shared --when my.when

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/mantle.hpp"
#include "sim/scenario.hpp"
#include "workloads/compile.hpp"
#include "workloads/create_heavy.hpp"
#include "workloads/maildir.hpp"

using namespace mantle;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  int num_mds = 2;
  int clients = 4;
  std::size_t files = 10000;
  std::uint64_t seed = 1;
  std::string workload = "shared";
  bool validate_only = false;
  core::MantlePolicy policy = core::scripts::greedy_spill();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--mds") num_mds = std::atoi(next());
    else if (arg == "--clients") clients = std::atoi(next());
    else if (arg == "--files") files = static_cast<std::size_t>(std::atoll(next()));
    else if (arg == "--seed") seed = static_cast<std::uint64_t>(std::atoll(next()));
    else if (arg == "--workload") workload = next();
    else if (arg == "--validate-only") validate_only = true;
    else if (arg == "--policy") {
      const std::string name = next();
      if (name == "greedy") policy = core::scripts::greedy_spill();
      else if (name == "greedy_even") policy = core::scripts::greedy_spill_even();
      else if (name == "fill_spill") policy = core::scripts::fill_and_spill();
      else if (name == "adaptable") policy = core::scripts::adaptable();
      else if (name == "original") policy = core::scripts::original();
      else {
        std::fprintf(stderr, "unknown policy %s\n", name.c_str());
        return 1;
      }
    } else if (arg == "--metaload") policy.metaload = slurp(next());
    else if (arg == "--mdsload") policy.mdsload = slurp(next());
    else if (arg == "--when") policy.when = slurp(next());
    else if (arg == "--where") policy.where = slurp(next());
    else if (arg == "--howmuch") policy.howmuch = slurp(next());
    else {
      std::fprintf(stderr, "unknown flag %s (see header comment)\n", arg.c_str());
      return 1;
    }
  }

  const std::string err = core::validate_policy(policy);
  if (!err.empty()) {
    std::fprintf(stderr, "policy rejected: %s\n", err.c_str());
    return 1;
  }
  std::printf("policy validated OK\n");
  if (validate_only) return 0;

  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = num_mds;
  cfg.cluster.seed = seed;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 2500;
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [&](int) { return std::make_unique<core::MantleBalancer>(policy); });

  for (int c = 0; c < clients; ++c) {
    if (workload == "shared") {
      s.add_client(workloads::make_shared_create_workload(c, "/shared", files, 100));
    } else if (workload == "create") {
      s.add_client(workloads::make_private_create_workload(c, files, 100));
    } else if (workload == "compile") {
      workloads::CompileOptions opt;
      opt.root = "/client" + std::to_string(c);
      s.add_client(std::make_unique<workloads::CompileWorkload>(opt));
    } else if (workload == "maildir") {
      s.add_client(workloads::make_maildir_workload(c, files, 150));
    } else {
      std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
      return 1;
    }
  }

  s.run();

  std::printf("runtime           %.2f s\n", to_seconds(s.makespan()));
  std::printf("throughput        %.0f ops/s\n", s.aggregate_throughput());
  const auto lat = s.pooled_latencies_ms();
  std::printf("latency           %.3f ms mean, %.3f ms p99\n", lat.mean(),
              lat.percentile(0.99));
  std::printf("migrations        %zu\n", s.cluster().migrations().size());
  std::printf("forwards          %llu\n",
              static_cast<unsigned long long>(s.cluster().total_forwards()));
  std::printf("sessions flushed  %llu\n",
              static_cast<unsigned long long>(s.cluster().total_sessions_flushed()));
  for (int m = 0; m < s.cluster().num_mds(); ++m)
    std::printf("mds%-2d served     %llu\n", m,
                static_cast<unsigned long long>(s.cluster().node(m).stats().completed));
  auto* mb = dynamic_cast<core::MantleBalancer*>(s.cluster().node(0).balancer());
  if (mb != nullptr && mb->hook_errors() > 0)
    std::printf("hook errors       %llu (last: %s)\n",
                static_cast<unsigned long long>(mb->hook_errors()),
                mb->last_error().c_str());
  return 0;
}

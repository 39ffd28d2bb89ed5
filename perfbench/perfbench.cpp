#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <iterator>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runner.hpp"

/// \file perfbench.cpp
/// The benchmark driver. One process runs one workload:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--git-sha <sha>]
///
/// --trace 0 repeats the timed run (phase profiler off, no wrappers) for
/// about --seconds and reports every end-to-end metric; --trace 1
/// alternates a timed and a traced run and reports every per-layer metric.
/// Each metric is printed with its name and unit, then the last stdout
/// line is the JSON result. A correctness-gate failure prints no metrics
/// and exits 1.

namespace {

using namespace mantle;             // NOLINT
using namespace mantle::perfbench;  // NOLINT
using Clock = std::chrono::steady_clock;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Must match BENCHMARK.json's end_to_end and per_layer lists.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"host_ops_per_s", "1/s"}, {"dump_s", "s"},
    {"peak_rss_mb", "MB"},    {"sim_ops_per_s", "1/s"},
    {"sim_lat_p50_ms", "ms"}, {"sim_lat_p99_ms", "ms"},
    {"sim_makespan_s", "s"},  {"imbalance_cv", "ratio"},
    {"ok_op_frac", "frac"},
};

constexpr MetricDef kPerLayer[] = {
    {"cluster.tick_self_s", "s"},
    {"cluster.ticks", "count"},
    {"cluster.gather_ms", "ms"},
    {"cluster.gather_candidates", "count"},
    {"cluster.hb_sent", "count"},
    {"cluster.hb_received", "count"},
    {"cluster.hb_dropped", "count"},
    {"cluster.hb_stale_rejected", "count"},
    {"cluster.requests_completed", "count"},
    {"cluster.forward_ratio", "ratio"},
    {"cluster.when_go_ratio", "ratio"},
    {"cluster.exports_started", "count"},
    {"cluster.export_commit_ratio", "ratio"},
    {"cluster.exports_aborted", "count"},
    {"cluster.exports_retried", "count"},
    {"cluster.sessions_flushed", "count"},
    {"cluster.splits", "count"},
    {"cluster.dead_letter_parked", "count"},
    {"cluster.requests_dropped", "count"},
    {"mds.subtree_pop_us", "us"},
    {"mds.subtree_pop_calls", "count"},
    {"mds.entry_count_us", "us"},
    {"mds.auth_entry_count_us", "us"},
    {"mds.dentries", "count"},
    {"mds.dirfrags", "count"},
    {"core.metaload_calls", "count"},
    {"core.metaload_s", "s"},
    {"core.mdsload_calls", "count"},
    {"core.mdsload_s", "s"},
    {"core.when_s", "s"},
    {"core.where_s", "s"},
    {"core.howmuch_s", "s"},
    {"core.hook_eval_self_s", "s"},
    {"lua.steps", "count"},
    {"lua.cache_hit_ratio", "ratio"},
    {"lua.hook_errors", "count"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.dispatch_self_s", "s"},
    {"sim.population_sample_s", "s"},
    {"sim.pool_peak_live_events", "count"},
    {"sim.pool_bytes", "bytes"},
    {"sim.client_retries", "count"},
    {"sim.lat_samples", "count"},
    {"sim.pop_outstanding_max", "count"},
    {"sim.pop_slot_saturated", "count"},
    {"obs.metrics_json_s", "s"},
    {"obs.prometheus_s", "s"},
    {"obs.trace_json_s", "s"},
    {"obs.perfetto_s", "s"},
    {"obs.provenance_json_s", "s"},
    {"obs.dump_bytes", "bytes"},
    {"obs.trace_events", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.provenance_dropped", "count"},
    {"fault.crashes", "count"},
    {"fault.hb_dropped", "count"},
    {"fault.hb_delayed", "count"},
    {"chaos.violations", "count"},
    {"bench.trace_overhead_frac", "frac"},
};

/// setup_s is the median of at least this many constructions.
constexpr std::size_t kMinSetups = 25;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string number(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_sha = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') return false;
    } else if (key == "--trace") {
      const std::string v = val;
      a.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && a.seconds > 0 && a.trace >= 0 &&
         find_workload(a.workload) != nullptr;
}

/// Print the metrics (one "name value unit" line each) and the JSON result.
void report(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics& values, const MetricDef* defs, std::size_t ndefs) {
  std::string metrics;
  if (correct) {
    for (std::size_t i = 0; i < ndefs; ++i) {
      const double v = values.at(defs[i].name);
      std::printf("%-28s %22s %s\n", defs[i].name, number(v).c_str(),
                  defs[i].unit);
      if (!metrics.empty()) metrics += ", ";
      metrics += json_string(defs[i].name) + ": {\"value\": " + number(v) +
                 ", \"unit\": " + json_string(defs[i].unit) + "}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Every allocation comes from the heap, which is trimmed only past 1 GiB
  // free: freed dump strings (hundreds of MB on 512 ranks, past any mmap
  // threshold glibc allows) are reused instead of being unmapped and
  // faulted in again. Otherwise the host's page-fault cost dominates the
  // noise in dump_s.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--git-sha <sha>]\nworkloads:");
    for (const WorkloadDef& w : workloads())
      std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const bool traced = a.trace == 1;
  const int k_traj = find_workload(a.workload)->trajectories;

  // A timed run measures every trajectory once; further passes, while the
  // time budget lasts, repeat them so host times get medians and digests
  // get compared. A traced run pairs each timed run with a traced one, so
  // the tracing overhead and the trajectory check compare like with like;
  // per-layer metrics carry no bound, so it needs only the first pair.
  struct Trajectory {
    std::uint64_t seed = 0;
    std::vector<RunResult> timed;
    std::vector<RunResult> traced;
  };
  std::vector<Trajectory> traj(static_cast<std::size_t>(k_traj));
  for (int k = 0; k < k_traj; ++k)
    traj[static_cast<std::size_t>(k)].seed = trajectory_seed(a.seed, k);

  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto t_start = Clock::now();
  double last_s = 0;
  const std::size_t min_runs = traced ? 1 : traj.size();
  for (std::size_t i = 0;; ++i) {
    if (i >= min_runs && seconds_since(t_start) + last_s > a.seconds) break;
    Trajectory& t = traj[i % traj.size()];
    const auto t0 = Clock::now();
    std::vector<RunResult*> fresh = {&t.timed.emplace_back(
        run_workload(a.workload, t.seed, false))};
    if (traced)
      fresh.push_back(
          &t.traced.emplace_back(run_workload(a.workload, t.seed, true)));
    last_s = seconds_since(t0);
    for (const RunResult* r : fresh) {
      attempted += r->attempted;
      failed += r->failed;
      failures.insert(failures.end(), r->failures.begin(), r->failures.end());
      // Gate: every run of one seed, timed or traced, has the same digest.
      if (r->digest != t.timed.front().digest) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "trajectories differ: seed %llu dump digest %016llx vs "
                      "%016llx",
                      static_cast<unsigned long long>(t.seed),
                      static_cast<unsigned long long>(r->digest),
                      static_cast<unsigned long long>(t.timed.front().digest));
        failures.push_back(buf);
      }
    }
    if (!failures.empty()) break;
  }

  // Stamp: what ran, where, and on which build.
  std::uint64_t events = 0;
  std::uint64_t lat_samples = 0;
  std::uint64_t lat_observed = 0;
  bool trace_truncated = false;
  bool provenance_truncated = false;
  bool pop_saturated = false;
  std::string seeds;
  std::string digests;
  for (const Trajectory& t : traj) {
    if (t.timed.empty()) continue;
    const RunResult& r = t.timed.front();
    events += r.events;
    lat_samples += r.lat_samples;
    lat_observed += r.lat_count;
    trace_truncated = trace_truncated || r.trace_truncated;
    provenance_truncated = provenance_truncated || r.provenance_truncated;
    pop_saturated = pop_saturated || r.pop_saturated;
    seeds += (seeds.empty() ? "" : ", ") + std::to_string(t.seed);
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(r.digest));
    digests += (digests.empty() ? "" : ", ") + std::string(buf);
  }
  std::vector<std::string> flags;
  if (trace_truncated) flags.push_back("trace_truncated");
  if (provenance_truncated) flags.push_back("provenance_truncated");
  if (pop_saturated) flags.push_back("pop_slot_saturated");
  std::string flag_list;
  for (const std::string& f : flags)
    flag_list += (flag_list.empty() ? "" : ", ") + json_string(f);
  std::size_t runs = 0;
  for (const Trajectory& t : traj) runs += t.timed.size() + t.traced.size();
  std::printf(
      "# stamp {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %s, \"host_cpus\": %d, \"build_type\": %s, "
      "\"compiler\": %s, \"cxx_flags\": %s, \"git_sha\": %s, \"runs\": %zu, "
      "\"trajectory_seeds\": [%s], \"digests\": [%s], \"sim_events\": %llu, "
      "\"lat_samples\": %llu, \"lat_observed\": %llu, \"flags\": [%s], "
      "\"params\": %s}\n",
      json_string(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      a.trace, number(a.seconds).c_str(), host_cpus(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(__VERSION__).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(), json_string(a.git_sha).c_str(),
      runs, seeds.c_str(), digests.c_str(),
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(lat_samples),
      static_cast<unsigned long long>(lat_observed), flag_list.c_str(),
      traj.front().timed.front().params.c_str());
  for (const std::string& f : flags)
    std::printf("# warning: %s: latency or dump numbers understate the "
                "true cost\n", f.c_str());

  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::printf("# gate: %s\n", f.c_str());
      std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                   f.c_str());
    }
    report(false, attempted, failed, {}, nullptr, 0);
    return 1;
  }

  // A host metric's value: per trajectory the median over its repeats, then
  // the mean over trajectories. Trajectories differ in their work (dump
  // sizes by 2.5x on compile16), and a mean over them is steadier than a
  // median.
  const auto over_trajectories = [&](auto value) {
    double sum = 0;
    int n = 0;
    for (const Trajectory& t : traj) {
      if (t.timed.empty()) continue;
      std::vector<double> reps;
      for (std::size_t j = 0; j < t.timed.size(); ++j)
        reps.push_back(value(t, j));
      sum += median(reps);
      ++n;
    }
    return sum / n;
  };
  const auto timed_field = [&](auto field) {
    return over_trajectories(
        [&](const Trajectory& t, std::size_t j) { return field(t.timed[j]); });
  };

  Metrics m;
  if (!traced) {
    // Sim metrics repeat exactly for a seed; a trajectory's distribution
    // can be bimodal (a migration happens or not), so take the mean.
    for (const auto& [name, v0] : traj.front().timed.front().sim) {
      double sum = 0;
      for (const Trajectory& t : traj) sum += t.timed.front().sim.at(name);
      m[name] = sum / static_cast<double>(traj.size());
    }
    std::vector<HostTime> setups;
    for (const Trajectory& t : traj)
      for (const RunResult& r : t.timed) setups.push_back(r.setup);
    for (std::size_t i = 0; setups.size() < kMinSetups; ++i)
      setups.push_back(setup_workload(a.workload, traj[i % traj.size()].seed));
    const HostTime setup = median(setups);
    const auto both = [&](auto field) {
      return HostTime{
          timed_field([&](const RunResult& r) { return field(r).host_s; }),
          timed_field([&](const RunResult& r) { return field(r).scaled_s; })};
    };
    const HostTime wall = both([](const RunResult& r) { return r.wall; });
    const HostTime dump = both([](const RunResult& r) { return r.dump; });
    m["setup_s"] = setup.scaled_s;
    m["wall_s"] = wall.scaled_s;
    m["dump_s"] = dump.scaled_s;
    m["host_ops_per_s"] = timed_field([](const RunResult& r) {
      return static_cast<double>(r.modeled_ops) / r.wall.scaled_s;
    });
    std::printf(
        "# host CPU seconds as measured / at the reference speed: setup_s "
        "%s / %s, wall_s %s / %s, dump_s %s / %s\n",
        number(setup.host_s).c_str(), number(setup.scaled_s).c_str(),
        number(wall.host_s).c_str(), number(wall.scaled_s).c_str(),
        number(dump.host_s).c_str(), number(dump.scaled_s).c_str());
    m["peak_rss_mb"] = peak_rss_mb();
    report(true, attempted, failed, m, kEndToEnd, std::size(kEndToEnd));
    return 0;
  }

  // Traced repeats pair with the timed run of the same pass.
  for (const auto& [name, v0] : traj.front().traced.front().layers)
    m[name] = over_trajectories([&](const Trajectory& t, std::size_t j) {
      return t.traced[j].layers.at(name);
    });
  m["sim.ns_per_event"] = timed_field([](const RunResult& r) {
    return r.events > 0
               ? r.wall.scaled_s * 1e9 / static_cast<double>(r.events)
               : 0;
  });
  m["bench.trace_overhead_frac"] =
      over_trajectories([](const Trajectory& t, std::size_t j) {
        return t.traced[j].wall.scaled_s / t.timed[j].wall.scaled_s;
      }) -
      1.0;
  report(true, attempted, failed, m, kPerLayer, std::size(kPerLayer));
  return 0;
}

#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "balancers/builtin.hpp"
#include "core/mantle.hpp"
#include "obs/profile.hpp"
#include "sim/scenario.hpp"
#include "workloads/compile.hpp"
#include "workloads/create_heavy.hpp"

/// \file harness.hpp
/// Shared plumbing for the figure-reproduction harnesses. Each bench/
/// binary regenerates one table or figure from the paper: it builds the
/// paper's setup out of the simulator, runs it, and prints the same rows
/// or series the paper reports (see EXPERIMENTS.md for the mapping and
/// the paper-vs-measured comparison).

namespace mantle::bench {

/// Scale knob: figure harnesses accept an optional argv[1] "--quick" to
/// shrink workloads (used in CI); default sizes match EXPERIMENTS.md.
inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") return true;
  return false;
}

struct RunResult {
  double makespan_s = 0.0;
  double throughput = 0.0;       // completed ops/s
  double mean_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double latency_stddev_ms = 0.0;
  std::uint64_t forwards = 0;
  std::uint64_t hits = 0;
  std::uint64_t migrations = 0;
  std::uint64_t sessions_flushed = 0;
  std::uint64_t total_ops = 0;
  std::vector<double> client_runtime_s;
  std::vector<std::uint64_t> per_mds_completed;
};

using BalancerFactory = cluster::MdsCluster::BalancerFactory;
using ScenarioTweak = std::function<void(sim::Scenario&)>;

struct RunSpec {
  int num_mds = 1;
  std::uint64_t seed = 1;
  cluster::ClusterConfig base;  // further cluster knobs
  BalancerFactory balancer;     // null = no balancing (pure single-auth)
  std::function<void(sim::Scenario&)> add_clients;
  ScenarioTweak before_run;     // e.g. install probes
  std::string label;            // observability dump prefix (default "run")
};

/// With MANTLE_OBS_DIR set, dump the scenario's metrics snapshot
/// (Prometheus text + JSON), its event timeline (plain JSON +
/// Chrome-trace/Perfetto JSON) and its decision provenance into that
/// directory as <label>-seed<seed>-<digest>.{prom,metrics.json,
/// trace.json,perfetto.json,provenance.json}, where <digest> is an
/// FNV-1a hash of those five documents. Two runs share a file set only
/// if they wrote the same bytes, and a rerun rewrites its own files byte
/// for byte, also under run_seeds_parallel(). run_scenario() calls this
/// automatically; benches that drive a sim::Scenario by hand call it
/// after run().
///
/// Only one document is in memory at a time: each is serialized, folded
/// into the digest, written under a temporary name unique to this dump
/// and freed, and the five files are renamed once the digest is known.
inline void dump_observability(const std::string& label, std::uint64_t seed,
                               sim::Scenario& s) {
  const char* dir = std::getenv("MANTLE_OBS_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "obs: cannot create %s: %s\n", dir,
                 ec.message().c_str());
    return;
  }
  const auto write = [&](const std::string& path, const std::string& body) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
  };
  static constexpr const char* kExts[] = {".prom", ".metrics.json",
                                          ".trace.json", ".perfetto.json",
                                          ".provenance.json"};
  static std::atomic<std::uint64_t> next_tmp{0};
  const std::string base = std::string(dir) + "/" +
                           (label.empty() ? "run" : label) + "-seed" +
                           std::to_string(seed);
  const std::string tmp = base + ".tmp" + std::to_string(::getpid()) + "-" +
                          std::to_string(next_tmp.fetch_add(1));
  std::string stem;
  {
    obs::ScopedPhase prof(obs::ProfilePhase::TraceIo);
    const cluster::MdsCluster& c = s.cluster();
    const auto document = [&c](int i) {
      switch (i) {
        case 0: return c.metrics().to_prometheus();
        case 1: return c.metrics().to_json();
        case 2: return c.trace().to_json();
        case 3: return c.trace().to_perfetto();
        default: return c.provenance().to_json();
      }
    };
    // The provenance digest's offset basis, not FNV's published one
    // (see obs/provenance.cpp); kept so that no file-set name changes.
    std::uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < 5; ++i) {
      const std::string body = document(i);
      for (const char ch : body) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ull;  // FNV prime
      }
      write(tmp + kExts[i], body);
    }
    char digest[9];
    std::snprintf(digest, sizeof(digest), "%08x",
                  static_cast<unsigned>(h ^ (h >> 32)));
    stem = base + "-" + digest;
    for (const char* ext : kExts) {
      std::filesystem::rename(tmp + ext, stem + ext, ec);
      if (ec)
        std::fprintf(stderr, "obs: cannot write %s%s: %s\n", stem.c_str(), ext,
                     ec.message().c_str());
    }
  }
  // Opt-in wall-clock side files. Deliberately separate from the
  // deterministic dump set above: profile numbers are real-time
  // measurements and would break byte-identical same-seed dumps.
  const char* prof_dump = std::getenv("MANTLE_PROFILE_DUMP");
  if (prof_dump != nullptr && *prof_dump != '\0' &&
      std::string(prof_dump) != "0") {
    write(stem + ".profile.json", obs::Profiler::instance().to_json());
    write(stem + ".profile.perfetto.json",
          s.cluster().trace().to_perfetto(&obs::Profiler::instance()));
  }
}

/// Print the wall-clock phase profile accumulated so far (bench binaries
/// call this after their runs; stdout only, never part of the dumps).
inline void print_phase_profile() {
  if (!obs::Profiler::instance().enabled()) return;
  // stderr, not stdout: bench stdout stays a pure function of
  // (seed, config) so `bench --quick | diff` determinism probes hold;
  // wall-clock numbers vary run to run by nature.
  std::fprintf(stderr, "\n## wall-clock phase profile\n%s",
               obs::Profiler::instance().table().c_str());
}

inline void dump_observability(const RunSpec& spec, sim::Scenario& s) {
  dump_observability(spec.label, spec.seed, s);
}

inline RunResult run_scenario(const RunSpec& spec,
                              std::unique_ptr<sim::Scenario>* keep = nullptr) {
  sim::ScenarioConfig cfg;
  cfg.cluster = spec.base;
  cfg.cluster.num_mds = spec.num_mds;
  cfg.cluster.seed = spec.seed;
  auto owned = std::make_unique<sim::Scenario>(cfg);
  sim::Scenario& s = *owned;
  if (spec.balancer) s.cluster().set_balancer_all(spec.balancer);
  spec.add_clients(s);
  if (spec.before_run) spec.before_run(s);
  s.run();
  dump_observability(spec, s);

  RunResult r;
  r.makespan_s = to_seconds(s.makespan());
  r.throughput = s.aggregate_throughput();
  const auto lat = s.pooled_latencies_ms();
  r.mean_latency_ms = lat.mean();
  r.p99_latency_ms = lat.percentile(0.99);
  r.latency_stddev_ms = lat.stddev();
  r.forwards = s.cluster().total_forwards();
  r.hits = s.cluster().total_hits();
  r.migrations = s.cluster().migrations().size();
  r.sessions_flushed = s.cluster().total_sessions_flushed();
  r.total_ops = s.cluster().total_completed();
  for (const auto& c : s.clients())
    r.client_runtime_s.push_back(to_seconds(c->runtime()));
  for (int m = 0; m < s.cluster().num_mds(); ++m)
    r.per_mds_completed.push_back(s.cluster().node(m).stats().completed);
  if (keep != nullptr) *keep = std::move(owned);
  return r;
}

/// Mean / stddev of client runtimes over several seeds (the paper reports
/// runtime standard deviation as its stability metric).
struct SeededStats {
  OnlineStats runtime;
  OnlineStats throughput;
  OnlineStats forwards;
  OnlineStats sessions;
  OnlineStats migrations;
};

/// Parallel seed sweep: every scenario is self-contained (own engine,
/// cluster, clients, RNG streams), so independent seeds run on worker
/// threads. Results are accumulated in seed order, so the output does not
/// depend on the thread count or on which worker ran which seed.
inline SeededStats run_seeds_parallel(const RunSpec& spec,
                                      const std::vector<std::uint64_t>& seeds) {
  std::vector<RunResult> results(seeds.size());
  std::vector<std::thread> workers;
  std::atomic<std::size_t> next{0};
  const unsigned n_threads =
      std::min<unsigned>(std::max(1u, std::thread::hardware_concurrency()),
                         static_cast<unsigned>(seeds.size()));
  workers.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= seeds.size()) return;
        RunSpec local = spec;
        local.seed = seeds[i];
        results[i] = run_scenario(local);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  SeededStats out;
  for (const RunResult& r : results) {
    out.runtime.add(r.makespan_s);
    out.throughput.add(r.throughput);
    out.forwards.add(static_cast<double>(r.forwards));
    out.sessions.add(static_cast<double>(r.sessions_flushed));
    out.migrations.add(static_cast<double>(r.migrations));
  }
  return out;
}

/// Per-MDS throughput series sampled on a fixed grid, rendered like the
/// stacked curves of Figures 4, 7 and 10.
inline void print_throughput_series(sim::Scenario& s, Time step,
                                    const std::string& label) {
  std::printf("## %s — metadata req/s per MDS (sampled every %.0f s)\n",
              label.c_str(), to_seconds(step));
  std::printf("%8s", "t(s)");
  for (int m = 0; m < s.cluster().num_mds(); ++m) std::printf("  mds%-6d", m);
  std::printf("  %8s\n", "total");
  const Time end = s.makespan();
  for (Time t = 0; t < end; t += step) {
    std::printf("%8.0f", to_seconds(t));
    double total = 0.0;
    for (int m = 0; m < s.cluster().num_mds(); ++m) {
      const Timeline& tl = s.cluster().node(m).stats().throughput;
      double sum = 0.0;
      std::size_t n = 0;
      for (Time u = t; u < t + step && u < end; u += tl.bucket_width()) {
        sum += tl.rate(u / tl.bucket_width());
        ++n;
      }
      const double rate = n ? sum / static_cast<double>(n) : 0.0;
      total += rate;
      std::printf("  %-9.0f", rate);
    }
    std::printf("  %8.0f\n", total);
  }
}

inline void print_result_row(const char* label, const RunResult& r) {
  std::printf(
      "%-28s runtime=%7.1fs  thru=%7.0f/s  lat=%6.3fms (p99 %7.3f, sd %6.3f)"
      "  fwd=%-7llu mig=%-4llu sess=%llu\n",
      label, r.makespan_s, r.throughput, r.mean_latency_ms, r.p99_latency_ms,
      r.latency_stddev_ms, static_cast<unsigned long long>(r.forwards),
      static_cast<unsigned long long>(r.migrations),
      static_cast<unsigned long long>(r.sessions_flushed));
}

}  // namespace mantle::bench

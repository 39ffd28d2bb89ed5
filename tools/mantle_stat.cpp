/// \file mantle_stat.cpp
/// `mantle-stat` — trace analytics over observability dumps.
///
/// Runs the obs/analyze engine over a directory of `*.trace.json` dumps
/// (as written by the bench harnesses under MANTLE_OBS_DIR), or over a
/// scenario simulated inline, and prints the per-run report. Under
/// --check the exit code is the number of distinct tripped anomaly
/// detectors, so CI can gate on "no ping-pong, no thrash, no stuck
/// exports, no dead-letter leaks" with a single invocation.
///
///   mantle-stat --dir obs-dumps                # tables for every dump
///   mantle-stat --dir obs-dumps --check        # CI gate
///   mantle-stat --dir obs-dumps --json         # one JSON document
///   mantle-stat --dir obs-dumps --write-reports  # <stem>.analysis.json
///   mantle-stat --scenario plain --seed 7      # no dumps needed
///   mantle-stat --shadow run.trace.json my.policy   # injection gate
///   mantle-stat --fuzz --seed 1 --iters 10000       # hook-input fuzzer
///   mantle-stat --chaos --seed 1 --iters 2000       # chaos sweep
///   mantle-stat --explain obs-dumps --tick 3 --rank 0  # decision narratives
///   mantle-stat --whatif obs-dumps adaptable        # candidate-policy diff
///
/// Exit codes (consolidated across subcommands; see
/// docs/OBSERVABILITY.md):
///   0   success / nothing tripped / no diffs
///   1-63  count of tripped detectors (--check), fuzz failures (--fuzz)
///         or what-if decision diffs (--whatif), capped at 63
///   64  usage error
///   65  policy rejected (--shadow verdict, or an invalid --whatif policy)
///   66  missing/empty input, or a chaos invariant violation (--chaos)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "balancers/builtin.hpp"
#include "chaos/chaos.hpp"
#include "common/log.hpp"
#include "core/mantle.hpp"
#include "fault/fault.hpp"
#include "obs/analyze.hpp"
#include "obs/json.hpp"
#include "obs/provenance.hpp"
#include "safety/fuzz.hpp"
#include "safety/shadow.hpp"
#include "safety/whatif.hpp"
#include "sim/scenario.hpp"
#include "workloads/create_heavy.hpp"

namespace {

constexpr int kExitUsage = 64;         // EX_USAGE
constexpr int kExitShadowReject = 65;  // EX_DATAERR: policy must not inject
constexpr int kExitNoInput = 66;       // EX_NOINPUT
constexpr int kExitCheckCap = 63;

struct Options {
  std::string dir;
  std::string scenario;
  std::string shadow_trace;   // --shadow TRACE POLICY
  std::string shadow_policy;
  std::string explain_dir;    // --explain DIR
  std::string whatif_dir;     // --whatif DIR POLICY
  std::string whatif_policy;
  std::int64_t tick = -1;     // --tick N (explain filter)
  int rank = -1;              // --rank R (explain filter)
  std::string repro_out;      // --repro-out FILE (fuzz/chaos reproducer corpus)
  bool fuzz = false;
  bool chaos = false;
  bool no_stale_guard = false;  // --chaos: reintroduce the seeded hb bug
  bool quick = false;
  std::uint64_t iters = 0;  // 0 = default for the mode
  std::uint64_t seed = 7;
  bool json = false;
  bool check = false;
  bool write_reports = false;
  mantle::obs::AnalyzeConfig cfg;
};

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: mantle-stat [--dir DIR] [--scenario plain|faulty] [--seed N]\n"
      "                   [--tick-ms N] [--json] [--check] [--write-reports]\n"
      "       mantle-stat --shadow TRACE POLICY [--json]\n"
      "       mantle-stat --fuzz [--seed N] [--iters K] [--quick]\n"
      "                   [--repro-out FILE] [--json]\n"
      "       mantle-stat --chaos [--seed N] [--iters K] [--quick]\n"
      "                   [--scenario LIST] [--no-stale-guard]\n"
      "                   [--repro-out FILE] [--json]\n"
      "       mantle-stat --explain DIR [--tick N] [--rank R]\n"
      "       mantle-stat --whatif DIR POLICY [--json]\n"
      "\n"
      "Analyzes Mantle observability dumps (<stem>.trace.json +\n"
      "<stem>.metrics.json pairs) or an inline scenario. DIR defaults to\n"
      "$MANTLE_OBS_DIR. With --check the exit code is the number of\n"
      "distinct tripped anomaly detectors (ping-pong, thrash,\n"
      "stuck-export, dead-letter-leak).\n"
      "\n"
      "--shadow replays the recorded TRACE against POLICY (a builtin name:\n"
      "original, greedy, greedy_even, fill_spill, adaptable; or a policy\n"
      "file with [when]/[where]/... sections) in a sandbox and runs the\n"
      "anomaly detectors over the decisions it would have made; exit 0 if\n"
      "the policy may be injected, 65 if it must not be.\n"
      "\n"
      "--fuzz runs the deterministic hook-input fuzzer (default 10000\n"
      "iterations; --quick = 800); the exit code is the number of shrunk\n"
      "invariant violations, written to --repro-out if given.\n"
      "\n"
      "--chaos runs the deterministic chaos engine: randomized fault\n"
      "schedules (crash/restart, heartbeat drop/dup/delay windows, store\n"
      "faults) against simulated scenarios with cluster-wide invariant\n"
      "checking every tick; violating schedules are delta-debugged to\n"
      "minimal reproducers (--repro-out). --scenario takes a comma list of\n"
      "create-heavy,compile,fault-recovery (default: all three, round-\n"
      "robin); --iters is the total schedule count (default 300, --quick\n"
      "60). --no-stale-guard disables the stale-heartbeat guard to\n"
      "reintroduce the seeded bug. Exit 66 on any violation.\n"
      "\n"
      "--explain renders human-readable narratives for every decision in\n"
      "DIR's <stem>.provenance.json dumps (the sibling trace resolves each\n"
      "shipment to committed/aborted). --tick/--rank restrict the output.\n"
      "\n"
      "--whatif replays the recorded hook inputs of DIR's provenance dumps\n"
      "through POLICY (same builtin names / policy files as --shadow) and\n"
      "diffs its when/where/howmuch decisions against the recorded run;\n"
      "the exit code is the diff count (capped at 63), 65 for an invalid\n"
      "policy.\n"
      "\n"
      "Exit codes: 0 ok; 1-63 tripped detectors / fuzz failures / what-if\n"
      "diffs; 64 usage; 65 policy rejected; 66 missing input or chaos\n"
      "violation.\n");
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

struct Analyzed {
  std::string stem;  // dump basename without .trace.json
  mantle::obs::Report report;
};

/// Inline scenarios, mirroring the reproducibility suite's setups: a
/// clean 3-MDS run and one with a crash/restart plus heartbeat faults.
mantle::obs::Report run_inline(const std::string& name, std::uint64_t seed,
                               const mantle::obs::AnalyzeConfig& acfg) {
  namespace sim = mantle::sim;
  using mantle::kMinute;
  using mantle::kSec;

  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = 3;
  cfg.cluster.seed = seed;
  cfg.cluster.bal_interval = kSec;
  cfg.cluster.split_size = 300;
  cfg.max_time = 2 * kMinute;
  std::unique_ptr<mantle::fault::FaultInjector> inj;
  if (name == "faulty") {
    cfg.cluster.laggy_factor = 3.0;
    cfg.retry.timeout = 2 * kSec;
    cfg.max_time = 3 * kMinute;
  }
  sim::Scenario s(cfg);
  s.cluster().set_balancer_all([](int) {
    return std::make_unique<mantle::balancers::OriginalBalancer>();
  });
  for (int c = 0; c < 3; ++c)
    s.add_client(mantle::workloads::make_shared_create_workload(
        c, "/shared", /*files=*/4000, /*think=*/200));
  if (name == "faulty") {
    mantle::fault::FaultPlan plan;
    plan.seed = seed;
    plan.crashes.push_back({kSec, 1});
    plan.restarts.push_back({2 * kSec, 1});
    plan.hb_drop_prob = 0.05;
    plan.hb_duplicate_prob = 0.02;
    inj = std::make_unique<mantle::fault::FaultInjector>(plan);
    inj->arm(s.cluster());
  }
  s.run();
  const auto counters =
      mantle::obs::parse_metrics_counters(s.cluster().metrics().to_json());
  return mantle::obs::analyze(s.cluster().trace(), acfg, &counters);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const char* env = std::getenv("MANTLE_OBS_DIR");
      env != nullptr && *env != '\0')
    opt.dir = env;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mantle-stat: %s needs a value\n", flag);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (a == "--dir") {
      opt.dir = value("--dir");
    } else if (a == "--scenario") {
      opt.scenario = value("--scenario");
    } else if (a == "--shadow") {
      opt.shadow_trace = value("--shadow");
      opt.shadow_policy = value("--shadow");
    } else if (a == "--explain") {
      opt.explain_dir = value("--explain");
    } else if (a == "--whatif") {
      opt.whatif_dir = value("--whatif");
      opt.whatif_policy = value("--whatif");
    } else if (a == "--tick") {
      opt.tick = std::strtoll(value("--tick"), nullptr, 10);
    } else if (a == "--rank") {
      opt.rank = static_cast<int>(std::strtol(value("--rank"), nullptr, 10));
    } else if (a == "--fuzz") {
      opt.fuzz = true;
    } else if (a == "--chaos") {
      opt.chaos = true;
    } else if (a == "--no-stale-guard") {
      opt.no_stale_guard = true;
    } else if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--iters") {
      opt.iters = std::strtoull(value("--iters"), nullptr, 10);
    } else if (a == "--repro-out") {
      opt.repro_out = value("--repro-out");
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value("--seed"), nullptr, 10);
    } else if (a == "--tick-ms") {
      opt.cfg.tick =
          std::strtoull(value("--tick-ms"), nullptr, 10) * mantle::kMsec;
    } else if (a == "--json") {
      opt.json = true;
    } else if (a == "--check") {
      opt.check = true;
    } else if (a == "--write-reports") {
      opt.write_reports = true;
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "mantle-stat: unknown option '%s'\n", a.c_str());
      usage(stderr);
      return kExitUsage;
    }
  }

  if (opt.chaos) {
    // Crash/recovery chatter for thousands of seeded runs would drown the
    // report; violations carry their own reproducers.
    mantle::Log::set_level(mantle::LogLevel::Error);
    mantle::chaos::ChaosConfig ccfg;
    ccfg.seed = opt.seed;
    ccfg.iters = opt.iters != 0 ? opt.iters : opt.quick ? 60 : 300;
    ccfg.hb_stale_guard = !opt.no_stale_guard;
    if (!opt.scenario.empty()) {
      ccfg.scenarios.clear();
      std::stringstream ss(opt.scenario);
      std::string item;
      while (std::getline(ss, item, ',')) {
        mantle::chaos::ScenarioKind k;
        if (!mantle::chaos::parse_scenario(item, k)) {
          std::fprintf(stderr, "mantle-stat: unknown chaos scenario '%s'\n",
                       item.c_str());
          return kExitUsage;
        }
        ccfg.scenarios.push_back(k);
      }
    }
    const mantle::chaos::ChaosResult res = mantle::chaos::run_chaos(ccfg);
    if (opt.json) {
      std::printf("%s\n", res.to_json().c_str());
    } else {
      std::printf(
          "chaos: seed=%llu %llu schedule(s), %llu fault(s) injected, "
          "%llu check(s), %llu shrink run(s), %zu violation(s)\n",
          static_cast<unsigned long long>(ccfg.seed),
          static_cast<unsigned long long>(res.schedules),
          static_cast<unsigned long long>(res.faults_injected),
          static_cast<unsigned long long>(res.checks),
          static_cast<unsigned long long>(res.shrink_runs),
          res.violations.size());
      if (!res.ok()) std::printf("%s", res.corpus().c_str());
    }
    if (!res.ok() && !opt.repro_out.empty()) {
      std::ofstream out(opt.repro_out, std::ios::binary | std::ios::trunc);
      out << res.corpus();
    }
    return res.ok() ? 0 : kExitNoInput;
  }

  if (opt.fuzz) {
    // Hostile inputs are the whole point; per-case clamp warnings would
    // drown the report.
    mantle::Log::set_level(mantle::LogLevel::Error);
    mantle::safety::FuzzConfig fcfg;
    fcfg.seed = opt.seed;
    fcfg.iters = opt.iters != 0 ? opt.iters
                 : opt.quick   ? 800
                               : 10000;
    const mantle::safety::FuzzResult res = mantle::safety::run_fuzz(fcfg);
    if (opt.json) {
      std::printf("%s\n", res.to_json().c_str());
    } else {
      std::printf("fuzz: seed=%llu %llu iteration(s), %llu check(s), "
                  "%zu failure(s)\n",
                  static_cast<unsigned long long>(fcfg.seed),
                  static_cast<unsigned long long>(res.iterations),
                  static_cast<unsigned long long>(res.checks),
                  res.failures.size());
      if (!res.ok()) std::printf("%s", res.corpus().c_str());
    }
    if (!res.ok() && !opt.repro_out.empty()) {
      std::ofstream out(opt.repro_out, std::ios::binary | std::ios::trunc);
      out << res.corpus();
    }
    return std::min<int>(static_cast<int>(res.failures.size()), kExitCheckCap);
  }

  if (!opt.explain_dir.empty() || !opt.whatif_dir.empty()) {
    mantle::Log::set_level(mantle::LogLevel::Error);
    const std::string dir =
        !opt.explain_dir.empty() ? opt.explain_dir : opt.whatif_dir;
    constexpr const char* kSuffix = ".provenance.json";
    std::error_code ec;
    std::vector<std::string> dumps;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > std::strlen(kSuffix) &&
          name.rfind(kSuffix) == name.size() - std::strlen(kSuffix))
        dumps.push_back(name);
    }
    if (ec) {
      std::fprintf(stderr, "mantle-stat: cannot read %s: %s\n", dir.c_str(),
                   ec.message().c_str());
      return kExitNoInput;
    }
    if (dumps.empty()) {
      std::fprintf(stderr, "mantle-stat: no *.provenance.json in %s\n",
                   dir.c_str());
      return kExitNoInput;
    }
    std::sort(dumps.begin(), dumps.end());

    if (!opt.explain_dir.empty()) {
      mantle::obs::ExplainOptions eopt;
      eopt.tick_us = opt.cfg.tick;
      eopt.tick = opt.tick;
      eopt.rank = opt.rank;
      for (const std::string& name : dumps) {
        const std::string stem =
            name.substr(0, name.size() - std::strlen(kSuffix));
        std::string prov_json;
        if (!read_file(dir + "/" + name, prov_json)) {
          std::fprintf(stderr, "mantle-stat: cannot read %s/%s\n",
                       dir.c_str(), name.c_str());
          return kExitNoInput;
        }
        const auto records = mantle::obs::parse_provenance_json(prov_json);
        // The sibling trace resolves shipments to committed/aborted.
        std::vector<mantle::obs::TraceEvent> events;
        std::string trace_json;
        if (read_file(dir + "/" + stem + ".trace.json", trace_json))
          events = mantle::obs::parse_trace_json(trace_json);
        std::printf("== %s ==\n%s\n", stem.c_str(),
                    mantle::obs::render_explain(records, events, eopt)
                        .c_str());
      }
      return 0;
    }

    mantle::core::MantlePolicy policy;
    const std::string perr =
        mantle::safety::load_policy(opt.whatif_policy, policy);
    if (!perr.empty()) {
      std::fprintf(stderr, "mantle-stat: %s\n", perr.c_str());
      return kExitShadowReject;
    }
    const std::string verr = mantle::core::validate_policy(policy);
    if (!verr.empty()) {
      std::fprintf(stderr, "mantle-stat: policy rejected before replay: %s\n",
                   verr.c_str());
      return kExitShadowReject;
    }
    std::uint64_t total_diffs = 0;
    std::string json_out = "{\"whatif\":{";
    bool first = true;
    for (const std::string& name : dumps) {
      const std::string stem =
          name.substr(0, name.size() - std::strlen(kSuffix));
      std::string prov_json;
      if (!read_file(dir + "/" + name, prov_json)) {
        std::fprintf(stderr, "mantle-stat: cannot read %s/%s\n", dir.c_str(),
                     name.c_str());
        return kExitNoInput;
      }
      const auto records = mantle::obs::parse_provenance_json(prov_json);
      const mantle::safety::WhatifResult res =
          mantle::safety::whatif_replay(records, policy);
      total_diffs += res.diff_count();
      if (opt.json) {
        if (!first) json_out += ",";
        first = false;
        json_out += mantle::obs::json_string(stem) + ":" + res.to_json();
      } else {
        std::printf("== whatif %s vs %s ==\n%s\n", opt.whatif_policy.c_str(),
                    stem.c_str(), res.to_table().c_str());
      }
    }
    if (opt.json) {
      json_out +=
          "},\"total_diffs\":" + std::to_string(total_diffs) + "}";
      std::printf("%s\n", json_out.c_str());
    } else {
      std::printf("%zu dump(s) replayed, %llu decision diff(s)\n",
                  dumps.size(),
                  static_cast<unsigned long long>(total_diffs));
    }
    return std::min<int>(static_cast<int>(total_diffs), kExitCheckCap);
  }

  if (!opt.shadow_trace.empty()) {
    mantle::Log::set_level(mantle::LogLevel::Error);
    std::string trace_json;
    if (!read_file(opt.shadow_trace, trace_json)) {
      std::fprintf(stderr, "mantle-stat: cannot read %s\n",
                   opt.shadow_trace.c_str());
      return kExitNoInput;
    }
    const auto events = mantle::obs::parse_trace_json(trace_json);
    if (events.empty()) {
      std::fprintf(stderr, "mantle-stat: no events in %s\n",
                   opt.shadow_trace.c_str());
      return kExitNoInput;
    }
    mantle::core::MantlePolicy policy;
    const std::string perr =
        mantle::safety::load_policy(opt.shadow_policy, policy);
    if (!perr.empty()) {
      std::fprintf(stderr, "mantle-stat: %s\n", perr.c_str());
      return kExitNoInput;
    }
    mantle::safety::ShadowConfig scfg;
    scfg.analyze = opt.cfg;
    const std::string verr =
        mantle::core::validate_policy(policy, scfg.budget);
    if (!verr.empty()) {
      std::fprintf(stderr, "mantle-stat: policy rejected before replay: %s\n",
                   verr.c_str());
      return kExitShadowReject;
    }
    const mantle::safety::ShadowVerdict v =
        mantle::safety::shadow_evaluate(events, policy, scfg);
    if (opt.json)
      std::printf("%s\n", v.to_json().c_str());
    else
      std::printf("== shadow %s vs %s ==\n%s", opt.shadow_policy.c_str(),
                  opt.shadow_trace.c_str(), v.to_table().c_str());
    return v.accepted ? 0 : kExitShadowReject;
  }

  std::vector<Analyzed> runs;

  if (!opt.scenario.empty()) {
    if (opt.scenario != "plain" && opt.scenario != "faulty") {
      std::fprintf(stderr, "mantle-stat: unknown scenario '%s'\n",
                   opt.scenario.c_str());
      return kExitUsage;
    }
    runs.push_back({opt.scenario + "-seed" + std::to_string(opt.seed),
                    run_inline(opt.scenario, opt.seed, opt.cfg)});
  } else {
    if (opt.dir.empty()) {
      std::fprintf(stderr,
                   "mantle-stat: no input (set --dir, $MANTLE_OBS_DIR or "
                   "--scenario)\n");
      return kExitNoInput;
    }
    std::error_code ec;
    std::vector<std::string> trace_files;
    for (const auto& entry :
         std::filesystem::directory_iterator(opt.dir, ec)) {
      const std::string name = entry.path().filename().string();
      constexpr const char* kSuffix = ".trace.json";
      if (name.size() > std::strlen(kSuffix) &&
          name.rfind(kSuffix) == name.size() - std::strlen(kSuffix))
        trace_files.push_back(name);
    }
    if (ec) {
      std::fprintf(stderr, "mantle-stat: cannot read %s: %s\n",
                   opt.dir.c_str(), ec.message().c_str());
      return kExitNoInput;
    }
    if (trace_files.empty()) {
      std::fprintf(stderr, "mantle-stat: no *.trace.json in %s\n",
                   opt.dir.c_str());
      return kExitNoInput;
    }
    // Filesystem order is arbitrary; sort so output (and any
    // first-tripped-detector reporting) is deterministic.
    std::sort(trace_files.begin(), trace_files.end());

    for (const std::string& name : trace_files) {
      const std::string stem =
          name.substr(0, name.size() - std::strlen(".trace.json"));
      std::string trace_json;
      if (!read_file(opt.dir + "/" + name, trace_json)) {
        std::fprintf(stderr, "mantle-stat: cannot read %s/%s\n",
                     opt.dir.c_str(), name.c_str());
        return kExitNoInput;
      }
      const auto events = mantle::obs::parse_trace_json(trace_json);
      std::string metrics_json;
      const bool have_metrics =
          read_file(opt.dir + "/" + stem + ".metrics.json", metrics_json);
      if (have_metrics) {
        // Full snapshot: locality counters plus the PR 8 event-pool
        // gauges and histogram quantiles in the report.
        const mantle::obs::MetricsSnapshot snap =
            mantle::obs::parse_metrics_json(metrics_json);
        runs.push_back({stem, mantle::obs::analyze(events, opt.cfg, snap)});
      } else {
        runs.push_back({stem, mantle::obs::analyze(events, opt.cfg,
                                                   nullptr)});
      }
    }
  }

  int tripped = 0;
  for (const Analyzed& r : runs) tripped += r.report.tripped();

  if (opt.write_reports && !opt.dir.empty()) {
    for (const Analyzed& r : runs) {
      const std::string path = opt.dir + "/" + r.stem + ".analysis.json";
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << r.report.to_json();
    }
  }

  if (opt.json) {
    std::string out = "{\"reports\":{";
    bool first = true;
    for (const Analyzed& r : runs) {
      if (!first) out += ",";
      first = false;
      out += mantle::obs::json_string(r.stem) + ":" + r.report.to_json();
    }
    out += "},\"tripped\":" + std::to_string(tripped) + "}";
    std::printf("%s\n", out.c_str());
  } else {
    for (const Analyzed& r : runs) {
      std::printf("== %s ==\n%s\n", r.stem.c_str(),
                  r.report.to_table().c_str());
    }
    std::printf("%zu run(s) analyzed, %d tripped detector(s)\n", runs.size(),
                tripped);
  }

  return opt.check ? std::min(tripped, kExitCheckCap) : 0;
}

#include "chaos/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <tuple>

#include "balancers/builtin.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"
#include "workloads/compile.hpp"
#include "workloads/create_heavy.hpp"

namespace mantle::chaos {

namespace {

// Generated fault times land in [kEventFrom, kEventTo]; every scenario is
// sized to still be mid-workload across that whole window.
constexpr Time kEventFrom = 500 * kMsec;
constexpr Time kEventTo = 6 * kSec;
constexpr Time kWindowMin = 500 * kMsec;
constexpr Time kWindowMax = 3 * kSec;
constexpr Time kDelayMin = 200 * kMsec;
constexpr Time kDelayMax = 2 * kSec;

constexpr int kNumMds = 3;

/// Deterministic window-based injector. Unlike fault::FaultInjector this
/// draws no randomness at injection time: every decision is a pure
/// function of (schedule, simulated clock, object id), so dropping one
/// event from the schedule leaves every other fault byte-for-byte in
/// place — the property the shrinker relies on.
class ChaosInjector final : public cluster::NetworkFaults {
 public:
  ChaosInjector(ChaosSchedule schedule, cluster::MdsCluster& cluster)
      : sched_(std::move(schedule)), cluster_(cluster) {
    cluster.set_network_faults(this);
    cluster.object_store().set_fault_hook(
        [this](store::StoreOp, const std::string& oid) {
          return store_faulted(oid);
        });
    for (const ChaosEvent& e : sched_.events) {
      if (e.kind == FaultKind::Crash) {
        cluster.engine().schedule_at(e.at, [this, r = e.rank]() {
          if (armed_ && cluster_.crash_mds(r)) ++injected_;
        });
      } else if (e.kind == FaultKind::Restart) {
        cluster.engine().schedule_at(e.at, [this, r = e.rank]() {
          if (armed_ && cluster_.restart_mds(r)) ++injected_;
        });
      }
    }
  }

  /// Stop injecting: quiesce must not be re-faulted by events scheduled
  /// past the workload's end.
  void disarm() { armed_ = false; }

  std::uint64_t injected() const { return injected_; }

  bool drop_heartbeat(MdsRank from, MdsRank) override {
    if (!window_active(FaultKind::HbDrop, from)) return false;
    ++injected_;
    return true;
  }
  bool duplicate_heartbeat(MdsRank from, MdsRank) override {
    if (!window_active(FaultKind::HbDup, from)) return false;
    ++injected_;
    return true;
  }
  Time extra_heartbeat_delay(MdsRank from, MdsRank) override {
    if (!armed_) return 0;
    const Time now = cluster_.engine().now();
    for (const ChaosEvent& e : sched_.events) {
      if (e.kind == FaultKind::HbDelay && e.rank == from && e.at <= now &&
          now < e.until) {
        ++injected_;
        return e.delay;
      }
    }
    return 0;
  }

 private:
  bool window_active(FaultKind kind, MdsRank rank) const {
    if (!armed_) return false;
    const Time now = cluster_.engine().now();
    for (const ChaosEvent& e : sched_.events)
      if (e.kind == kind && e.rank == rank && e.at <= now && now < e.until)
        return true;
    return false;
  }

  bool store_faulted(const std::string& oid) {
    if (!armed_) return false;
    const Time now = cluster_.engine().now();
    bool active = false;
    for (const ChaosEvent& e : sched_.events)
      if (e.kind == FaultKind::StoreFault && e.at <= now && now < e.until)
        active = true;
    if (!active) return false;
    // Stable per-oid decision (~25% of ids fail while the window is open):
    // deterministic, and a bounded window guarantees later flushes of the
    // same object eventually succeed.
    const std::uint64_t h =
        SplitMix64(sched_.seed ^ mds::hash_dentry_name(oid)).next();
    if ((h & 3) != 0) return false;
    ++injected_;
    return true;
  }

  ChaosSchedule sched_;
  cluster::MdsCluster& cluster_;
  bool armed_ = true;
  std::uint64_t injected_ = 0;
};

sim::ScenarioConfig base_config(std::uint64_t seed, bool hb_stale_guard) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = kNumMds;
  cfg.cluster.seed = seed;
  cfg.cluster.bal_interval = 500 * kMsec;
  cfg.cluster.split_size = 150;
  cfg.cluster.merge_size = 10;
  cfg.cluster.hb_stale_guard = hb_stale_guard;
  cfg.retry.timeout = 2 * kSec;  // clients must survive crashed ranks
  cfg.retry.max_backoff = 4 * kSec;
  cfg.max_time = 90 * kSec;  // wedge backstop, far past the nominal ~7s
  return cfg;
}

void add_workloads(sim::Scenario& s, ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::CreateHeavy:
      // ~6.3s of shared-directory creates: drives splits and exports.
      for (int c = 0; c < 3; ++c)
        s.add_client(workloads::make_shared_create_workload(
            c, "/shared", 900, /*think=*/7000));
      break;
    case ScenarioKind::Compile:
      // Shrunken compile tree, stretched to ~6s: hotspot phases + the
      // readdir flash crowd.
      for (int c = 0; c < 2; ++c) {
        workloads::CompileOptions opt;
        opt.root = "/src" + std::to_string(c);
        opt.files_per_dir = 4;
        opt.compile_ops = 150;
        opt.read_ops = 60;
        opt.link_rounds = 2;
        opt.untar_think = 2000;
        opt.compile_think = 25000;
        opt.read_think = 8000;
        opt.link_think = 2000;
        s.add_client(workloads::make_compile_workload(c, opt));
      }
      break;
    case ScenarioKind::FaultRecovery:
      // Per-client private trees plus a baseline crash/restart of rank 1,
      // so every schedule composes with an already-degraded cluster.
      for (int c = 0; c < 3; ++c)
        s.add_client(
            workloads::make_private_create_workload(c, 900, /*think=*/7000));
      s.engine().schedule_at(2 * kSec, [&s]() { s.cluster().crash_mds(1); });
      s.engine().schedule_at(4 * kSec, [&s]() { s.cluster().restart_mds(1); });
      break;
  }
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::Crash: return "crash";
    case FaultKind::Restart: return "restart";
    case FaultKind::HbDrop: return "hb-drop";
    case FaultKind::HbDup: return "hb-dup";
    case FaultKind::HbDelay: return "hb-delay";
    case FaultKind::StoreFault: return "store-fault";
  }
  return "?";
}

std::string ChaosEvent::str() const {
  char buf[160];
  int n = std::snprintf(buf, sizeof(buf), "%s", fault_kind_name(kind));
  if (rank != mds::kNoRank)
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                       " rank=%d", rank);
  n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                     " at_us=%llu", static_cast<unsigned long long>(at));
  if (until != 0)
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                       " until_us=%llu", static_cast<unsigned long long>(until));
  if (delay != 0)
    std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                  " delay_us=%llu", static_cast<unsigned long long>(delay));
  return buf;
}

std::string ChaosSchedule::str() const {
  std::string out;
  for (const ChaosEvent& e : events) {
    if (!out.empty()) out += "; ";
    out += e.str();
  }
  return out;
}

const char* scenario_name(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::CreateHeavy: return "create-heavy";
    case ScenarioKind::Compile: return "compile";
    case ScenarioKind::FaultRecovery: return "fault-recovery";
  }
  return "?";
}

bool parse_scenario(const std::string& name, ScenarioKind& out) {
  std::string n = name;
  std::replace(n.begin(), n.end(), '_', '-');
  for (const ScenarioKind k :
       {ScenarioKind::CreateHeavy, ScenarioKind::Compile,
        ScenarioKind::FaultRecovery}) {
    if (n == scenario_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

ChaosSchedule generate_schedule(std::uint64_t seed, int num_mds,
                                int max_events) {
  // The generator's stream is decorrelated from the cluster's (which is
  // seeded with `seed` directly) by one SplitMix64 step.
  Rng rng(SplitMix64(seed).next());
  ChaosSchedule s;
  s.seed = seed;
  const int n =
      1 + static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(
                                              std::max(1, max_events) - 1)));
  for (int i = 0; i < n; ++i) {
    ChaosEvent e;
    e.kind = static_cast<FaultKind>(rng.uniform(0, 5));
    e.rank = static_cast<MdsRank>(
        rng.uniform(0, static_cast<std::uint64_t>(num_mds - 1)));
    e.at = rng.uniform(kEventFrom, kEventTo);
    switch (e.kind) {
      case FaultKind::Crash:
      case FaultKind::Restart:
        break;
      case FaultKind::HbDrop:
      case FaultKind::HbDup:
        e.until = e.at + rng.uniform(kWindowMin, kWindowMax);
        break;
      case FaultKind::HbDelay:
        e.until = e.at + rng.uniform(kWindowMin, kWindowMax);
        e.delay = rng.uniform(kDelayMin, kDelayMax);
        break;
      case FaultKind::StoreFault:
        e.rank = mds::kNoRank;
        e.until = e.at + rng.uniform(kWindowMin, kWindowMax);
        break;
    }
    s.events.push_back(e);
  }
  std::sort(s.events.begin(), s.events.end(),
            [](const ChaosEvent& a, const ChaosEvent& b) {
              return std::tie(a.at, a.kind, a.rank, a.until, a.delay) <
                     std::tie(b.at, b.kind, b.rank, b.until, b.delay);
            });
  return s;
}

RunOutcome run_schedule(ScenarioKind kind, const ChaosSchedule& schedule,
                        bool hb_stale_guard) {
  sim::Scenario s(base_config(schedule.seed, hb_stale_guard));
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  add_workloads(s, kind);

  ChaosInjector inj(schedule, s.cluster());
  InvariantChecker chk(s.cluster());
  s.add_probe(s.cluster().config().bal_interval,
              [&chk](Time t) { chk.check_tick(t); });

  RunOutcome out;
  out.makespan = s.run();

  // Quiesce: no further injection, every down rank restarted, and the
  // cluster drained until nothing is mid-flight. Bounded rounds so a
  // genuinely wedged cluster still fails the final checks instead of
  // spinning forever.
  inj.disarm();
  auto& cl = s.cluster();
  for (int round = 0; round < 6; ++round) {
    for (MdsRank r = 0; r < cl.num_mds(); ++r)
      if (!cl.is_up(r) && !cl.is_replaying(r)) cl.restart_mds(r);
    s.engine().run_until(s.engine().now() + 2 * kSec);
    bool settled = cl.active_migration_count() == 0 && cl.dead_letter_size() == 0;
    for (MdsRank r = 0; r < cl.num_mds(); ++r) settled &= cl.is_up(r);
    if (settled) break;
  }
  chk.check_quiesce(s.engine().now());

  out.checks = chk.checks();
  out.faults_injected = inj.injected();
  out.violated = !chk.ok();
  if (out.violated) out.first = chk.violations().front();
  return out;
}

ChaosSchedule shrink_schedule(ScenarioKind kind, const ChaosSchedule& schedule,
                              bool hb_stale_guard, std::uint64_t* runs) {
  ChaosSchedule cur = schedule;
  bool changed = true;
  while (changed && !cur.events.empty()) {
    changed = false;
    for (std::size_t i = 0; i < cur.events.size(); ++i) {
      ChaosSchedule cand = cur;
      cand.events.erase(cand.events.begin() + static_cast<std::ptrdiff_t>(i));
      if (runs != nullptr) ++*runs;
      // "Any invariant still violated" keeps the search monotone: the
      // minimal schedule may end up tripping a different invariant than
      // the original, which is fine — it is still a real reproducer.
      if (run_schedule(kind, cand, hb_stale_guard).violated) {
        cur = std::move(cand);
        changed = true;
        break;
      }
    }
  }
  return cur;
}

std::string ChaosViolation::reproducer() const {
  char buf[96];
  std::string out = "scenario=";
  out += scenario_name(scenario);
  std::snprintf(buf, sizeof(buf), " seed=%llu",
                static_cast<unsigned long long>(seed));
  out += buf;
  out += " invariant=" + invariant;
  std::snprintf(buf, sizeof(buf), " at_us=%llu events=%zu",
                static_cast<unsigned long long>(at), shrunk.events.size());
  out += buf;
  out += " schedule=[" + shrunk.str() + "]";
  out += " detail=" + obs::json_string(detail);
  return out;
}

std::string ChaosResult::corpus() const {
  std::string out;
  for (const ChaosViolation& v : violations) {
    out += v.reproducer();
    out += '\n';
  }
  return out;
}

std::string ChaosResult::to_json() const {
  char buf[128];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"checks\":%llu,\"faults_injected\":%llu,\"schedules\":%llu,"
                "\"shrink_runs\":%llu,\"violations\":[",
                static_cast<unsigned long long>(checks),
                static_cast<unsigned long long>(faults_injected),
                static_cast<unsigned long long>(schedules),
                static_cast<unsigned long long>(shrink_runs));
  out += buf;
  bool first = true;
  for (const ChaosViolation& v : violations) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "{\"at_us\":%llu,",
                  static_cast<unsigned long long>(v.at));
    out += buf;
    out += "\"detail\":" + obs::json_string(v.detail) + ",";
    std::snprintf(buf, sizeof(buf), "\"events\":%zu,", v.shrunk.events.size());
    out += buf;
    out += "\"invariant\":" + obs::json_string(v.invariant) + ",";
    std::snprintf(buf, sizeof(buf), "\"iteration\":%llu,",
                  static_cast<unsigned long long>(v.iteration));
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"original_events\":%zu,",
                  v.original_events);
    out += buf;
    out += "\"scenario\":\"";
    out += scenario_name(v.scenario);
    out += "\",\"schedule\":" + obs::json_string(v.shrunk.str()) + ",";
    std::snprintf(buf, sizeof(buf), "\"seed\":%llu}",
                  static_cast<unsigned long long>(v.seed));
    out += buf;
  }
  out += "]}";
  return out;
}

ChaosResult run_chaos(const ChaosConfig& cfg, obs::MetricsRegistry* metrics) {
  ChaosResult res;
  if (cfg.scenarios.empty() || cfg.iters == 0) return res;

  SplitMix64 seeder(cfg.seed);
  for (std::uint64_t iter = 0; iter < cfg.iters; ++iter) {
    const std::uint64_t sseed = seeder.next();
    if (res.violations.size() >= cfg.max_violations) break;
    const ScenarioKind kind =
        cfg.scenarios[static_cast<std::size_t>(iter % cfg.scenarios.size())];
    const ChaosSchedule sched =
        generate_schedule(sseed, kNumMds, cfg.max_events);
    const RunOutcome out = run_schedule(kind, sched, cfg.hb_stale_guard);
    ++res.schedules;
    res.checks += out.checks;
    res.faults_injected += out.faults_injected;
    if (!out.violated) continue;

    ChaosViolation v;
    v.iteration = iter;
    v.scenario = kind;
    v.seed = sseed;
    v.original_events = sched.events.size();
    v.shrunk = cfg.shrink ? shrink_schedule(kind, sched, cfg.hb_stale_guard,
                                            &res.shrink_runs)
                          : sched;
    // Re-run the minimal schedule so the reported violation describes the
    // reproducer, not the original composite.
    const RunOutcome min = run_schedule(kind, v.shrunk, cfg.hb_stale_guard);
    const RunOutcome& use = min.violated ? min : out;
    if (!min.violated) v.shrunk = sched;  // paranoia: keep a failing schedule
    v.invariant = use.first.invariant;
    v.detail = use.first.detail;
    v.at = use.first.at;
    res.violations.push_back(std::move(v));
  }

  if (metrics != nullptr) {
    metrics->counter("mantle_chaos_schedules_total",
                     "chaos schedules executed")
        .inc(res.schedules);
    metrics->counter("mantle_chaos_faults_injected_total",
                     "faults injected by chaos schedules")
        .inc(res.faults_injected);
    metrics->counter("mantle_chaos_checks_total",
                     "invariant evaluations performed")
        .inc(res.checks);
    metrics->counter("mantle_chaos_violations_total",
                     "invariant violations found")
        .inc(res.violations.size());
    metrics->counter("mantle_chaos_shrink_runs_total",
                     "re-executions spent shrinking reproducers")
        .inc(res.shrink_runs);
  }
  return res;
}

}  // namespace mantle::chaos

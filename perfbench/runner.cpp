#include "runner.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "balancers/builtin.hpp"
#include "chaos/invariant.hpp"
#include "fault/fault.hpp"
#include "obs/profile.hpp"
#include "workloads/compile.hpp"
#include "workloads/create_heavy.hpp"

namespace mantle::perfbench {

namespace {

/// The calling thread's CPU time (user + system) as a chrono clock. The
/// benchmark runs on one thread that never blocks, so this is its wall
/// time less the time a shared host's scheduler gave the CPU to others:
/// the preemptions that dominate run-to-run noise on such a host drop out.
struct ThreadCpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<ThreadCpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(std::chrono::seconds(ts.tv_sec) +
                      std::chrono::nanoseconds(ts.tv_nsec));
  }
};

using Clock = ThreadCpuClock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Current thread CPU time in seconds.
double cpu_seconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Coefficient of variation across per-rank values (0 when all idle).
double cv_of(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double mean = 0;
  for (const double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  if (mean <= 0) return 0;
  double var = 0;
  for (const double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  return std::sqrt(var) / mean;
}

/// FNV-1a over 8-byte words (bytes for the tail): fast enough for the
/// few hundred MB of dumps a 512-rank run writes, and stable across
/// builds, so printed digests compare between commits.
std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + i, sizeof w);
    h = (h ^ w) * kPrime;
  }
  for (; i < s.size(); ++i)
    h = (h ^ static_cast<unsigned char>(s[i])) * kPrime;
  return h;
}

/// The snapshot probe reads popularity at simulated time 0. DecayCounter
/// applies pending decay lazily and only forward in time, so a read at
/// the current clock would re-round every counter it touches and could
/// shift later balancer decisions; a read at time 0 walks exactly the
/// same dirfrags without writing anything.
constexpr Time kFrozenClock = 0;

/// The registry creates counters on first lookup, so read only names that
/// exist (and only after the dumps are serialized).
double counter(obs::MetricsRegistry& reg, const std::string& name) {
  const std::vector<std::string> names = reg.counter_names();
  if (!std::binary_search(names.begin(), names.end(), name)) return 0;
  return static_cast<double>(reg.counter(name).value());
}

template <class T>
double num(T x) {
  return static_cast<double>(x);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// One workload, built and ready to run. Members are destroyed in reverse
/// order: the probe before the scenario that calls it, the scenario
/// before the fault injector its cluster points at.
struct Built {
  std::string params;  ///< JSON object stamped into every result
  int walk_every = 1;  ///< probe firings (seconds) per balancer interval
  /// Share of the run's time that follows the reference's (core) speed;
  /// see Probe::start.
  double run_core_share = 1.0;
  std::unique_ptr<fault::FaultInjector> faults;
  std::unique_ptr<sim::Scenario> s;
  std::vector<HookTimer*> timers;
  std::unique_ptr<Probe> probe;
};

/// 512 ranks under 1M modeled clients: per-tick namespace walks, the N^2
/// heartbeat fan-out, Lua hook evaluation and dump size dominate.
Built build_scale512_lua(std::uint64_t seed, bool traced) {
  constexpr int kRanks = 512;
  constexpr int kPops = 16;
  constexpr int kDirsPerPop = 32;
  constexpr std::uint64_t kModeledClients = 1'000'000;
  constexpr double kSimRate = 2048.0;
  constexpr double kCreateFrac = 0.3;
  constexpr Time kInterval = 10 * kSec;
  constexpr Time kDuration = 100 * kSec;
  constexpr std::size_t kSplit = 5000;
  constexpr int kObjClients = 4;
  constexpr std::size_t kObjFiles = 2000;
  constexpr Time kObjThink = 50 * kMsec;

  Built b;
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = kRanks;
  cfg.cluster.seed = seed;
  cfg.cluster.split_size = kSplit;
  cfg.cluster.bal_interval = kInterval;
  cfg.max_time = kDuration + 60 * kSec;
  b.s = std::make_unique<sim::Scenario>(cfg);
  install_policy(*b.s, core::scripts::original(), traced ? &b.timers : nullptr);
  // Closed-loop object clients trickle creates across the whole window,
  // so they share the cluster with the populations until the end.
  for (int c = 0; c < kObjClients; ++c)
    b.s->add_client(
        workloads::make_private_create_workload(c, kObjFiles, kObjThink));
  for (int p = 0; p < kPops; ++p) {
    sim::PopulationConfig pc;
    pc.modeled_clients = kModeledClients / kPops;
    pc.ops_per_client = 1.0;
    pc.sim_rate = kSimRate / kPops;
    pc.duration = kDuration;
    pc.tick = 50 * kMsec;
    pc.create_frac = kCreateFrac;
    for (int d = 0; d < kDirsPerPop; ++d)
      pc.dirs.push_back("/scale" + std::to_string(p) + "/d" +
                        std::to_string(d));
    b.s->add_population(pc);
  }
  b.walk_every = static_cast<int>(kInterval / kSec);
  // The run's 1.4 GB working set (512 Lua states, views, trace) waits on
  // memory much of the time, which a core-bound reference does not see. On
  // a shared 4-CPU host the run's seed-to-seed spread was 0.02-0.23 as
  // measured, 0.10-0.13 fully scaled and 0.03-0.11 half scaled.
  b.run_core_share = 0.5;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"ranks\": %d, \"policy\": \"lua:original\", \"bal_interval_s\": %g, "
      "\"populations\": %d, \"dirs_per_population\": %d, "
      "\"modeled_clients\": %llu, \"sim_rate_per_s\": %g, "
      "\"create_frac\": %g, \"duration_s\": %g, \"split_size\": %zu, "
      "\"object_clients\": %d, \"object_files\": %zu, "
      "\"object_think_ms\": %g}",
      kRanks, to_seconds(kInterval), kPops, kDirsPerPop,
      static_cast<unsigned long long>(kModeledClients), kSimRate, kCreateFrac,
      to_seconds(kDuration), kSplit, kObjClients, kObjFiles,
      to_seconds(kObjThink) * 1e3);
  b.params = buf;
  return b;
}

/// The paper's compile job on a few ranks: read-heavy request service,
/// where heartbeats, Lua and dumps cost almost nothing.
Built build_compile16(std::uint64_t seed, bool traced) {
  constexpr int kRanks = 5;
  constexpr int kClients = 16;
  constexpr Time kInterval = 4 * kSec;
  workloads::CompileOptions opt;
  opt.files_per_dir = 40;
  opt.compile_ops = 12000;
  opt.read_ops = 2500;
  opt.link_rounds = 8;

  Built b;
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = kRanks;
  cfg.cluster.seed = seed;
  cfg.cluster.bal_interval = kInterval;
  b.s = std::make_unique<sim::Scenario>(cfg);
  install_policy(*b.s, core::scripts::adaptable(),
                 traced ? &b.timers : nullptr);
  for (int c = 0; c < kClients; ++c) {
    workloads::CompileOptions o = opt;
    o.root = "/client" + std::to_string(c);
    b.s->add_client(std::make_unique<workloads::CompileWorkload>(o));
  }
  b.walk_every = static_cast<int>(kInterval / kSec);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"ranks\": %d, \"policy\": \"lua:adaptable\", "
                "\"bal_interval_s\": %g, \"clients\": %d, "
                "\"files_per_dir\": %zu, \"compile_ops\": %zu, "
                "\"read_ops\": %zu, \"link_rounds\": %zu}",
                kRanks, to_seconds(kInterval), kClients, opt.files_per_dir,
                opt.compile_ops, opt.read_ops, opt.link_rounds);
  b.params = buf;
  return b;
}

/// Shared-directory creates under a rank crash and heartbeat faults: the
/// write path, fragment splits, journal replay, aborts and retries.
Built build_create_shared_faults(std::uint64_t seed, bool traced) {
  constexpr int kRanks = 8;
  constexpr int kClients = 8;
  constexpr std::size_t kFiles = 8000;
  constexpr std::size_t kSplit = 2500;
  constexpr Time kInterval = kSec;
  constexpr Time kRetry = kSec;
  constexpr Time kCrashAt = 8 * kSec;
  constexpr Time kRestartAt = 16 * kSec;
  constexpr int kCrashRank = 1;
  constexpr double kHbDrop = 0.05;
  constexpr double kHbDelay = 0.10;
  constexpr Time kHbDelayMax = 2 * kSec;

  Built b;
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = kRanks;
  cfg.cluster.seed = seed;
  cfg.cluster.split_size = kSplit;
  cfg.cluster.bal_interval = kInterval;
  cfg.retry.timeout = kRetry;
  b.s = std::make_unique<sim::Scenario>(cfg);
  install_policy(*b.s, core::scripts::greedy_spill(),
                 traced ? &b.timers : nullptr);
  // The shared directory exists before the clients start (admin setup),
  // so no client's mkdir fails on a duplicate.
  mds::Namespace& ns = b.s->cluster().ns();
  ns.mkdir(ns.root(), "shared", 0);
  for (int c = 0; c < kClients; ++c) {
    workloads::CreateHeavyWorkload::Options o;
    o.dir = "/shared";
    o.make_dir = false;
    o.num_files = kFiles;
    o.name_prefix = "c" + std::to_string(c) + "_";
    b.s->add_client(std::make_unique<workloads::CreateHeavyWorkload>(o));
  }
  fault::FaultPlan plan;
  plan.crashes.push_back({kCrashAt, kCrashRank});
  plan.restarts.push_back({kRestartAt, kCrashRank});
  plan.hb_drop_prob = kHbDrop;
  plan.hb_delay_prob = kHbDelay;
  plan.hb_delay_max = kHbDelayMax;
  plan.seed = seed ^ 0xfa175eedULL;
  b.faults = std::make_unique<fault::FaultInjector>(plan);
  b.faults->arm(b.s->cluster());
  b.walk_every = static_cast<int>(kInterval / kSec);
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"ranks\": %d, \"policy\": \"lua:greedy_spill\", "
      "\"bal_interval_s\": %g, \"clients\": %d, \"files_per_client\": %zu, "
      "\"split_size\": %zu, \"retry_timeout_s\": %g, \"crash_rank\": %d, "
      "\"crash_at_s\": %g, \"restart_at_s\": %g, \"hb_drop_prob\": %g, "
      "\"hb_delay_prob\": %g, \"hb_delay_max_s\": %g}",
      kRanks, to_seconds(kInterval), kClients, kFiles, kSplit,
      to_seconds(kRetry), kCrashRank, to_seconds(kCrashAt),
      to_seconds(kRestartAt), kHbDrop, kHbDelay, to_seconds(kHbDelayMax));
  b.params = buf;
  return b;
}

Built build(const std::string& workload, std::uint64_t seed, bool traced) {
  Built b;
  if (workload == "scale512_lua")
    b = build_scale512_lua(seed, traced);
  else if (workload == "compile16")
    b = build_compile16(seed, traced);
  else if (workload == "create_shared_faults")
    b = build_create_shared_faults(seed, traced);
  else
    throw std::invalid_argument("unknown workload: " + workload);
  b.probe = std::make_unique<Probe>(*b.s, b.walk_every, traced);
  return b;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

HostTime median(const std::vector<HostTime>& v) {
  std::vector<double> host;
  std::vector<double> scaled;
  for (const HostTime& t : v) {
    host.push_back(t.host_s);
    scaled.push_back(t.scaled_s);
  }
  return {median(host), median(scaled)};
}

double reference_s() {
  // No allocation and a 4 KiB working set: the second, warm run measures
  // the core's speed, not the state of a large fragmented heap or of the
  // caches a 512-rank run just swept.
  static std::array<std::uint64_t, 512> keys;
  double best = 0;
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ull;  // xorshift64
    for (std::uint64_t& k : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      char buf[32];
      const int n = std::snprintf(buf, sizeof buf, "%.17g",
                                  static_cast<double>(x % 1000003) / 7.0);
      k = x;
      for (int i = 0; i < n; ++i)
        k = (k ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
    }
    std::sort(keys.begin(), keys.end());
    // Using the result keeps the compiler from dropping the work.
    if (keys.front() > keys.back()) throw std::logic_error("reference");
    const double dt = seconds_since(t0);
    best = rep == 0 ? dt : std::min(best, dt);
  }
  return best;
}

HostTime at_reference_speed(double host_s, double core_share) {
  const double speed = kReferenceS / reference_s();
  return {host_s, host_s * (core_share * speed + 1.0 - core_share)};
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"scale512_lua", 2}, {"compile16", 26}, {"create_shared_faults", 25}};
  return defs;
}

std::uint64_t trajectory_seed(std::uint64_t seed, int k) {
  // SplitMix64 finalizer over (seed, k): distinct, well-mixed cluster seeds.
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void install_policy(sim::Scenario& s, const core::MantlePolicy& policy,
                    std::vector<HookTimer*>* timers) {
  s.cluster().set_balancer_all(
      [&](int) -> std::unique_ptr<cluster::Balancer> {
        auto lua = std::make_unique<core::MantleBalancer>(policy);
        if (timers == nullptr) return lua;
        auto timed = std::make_unique<HookTimer>(std::move(lua));
        timers->push_back(timed.get());
        return timed;
      });
}

// -- Probe ------------------------------------------------------------------

Probe::Probe(sim::Scenario& s, int walk_every, bool walks)
    : s_(s), walk_every_(std::max(walk_every, 1)), walks_on_(walks),
      prev_(static_cast<std::size_t>(s.cluster().num_mds()), 0) {
  s_.add_probe(kSec, [this](Time) { fire(); });
}

void Probe::start(double core_share) {
  core_share_ = core_share;
  timed_ = {};
  timing_ = true;
  mark_ = cpu_seconds();
}

HostTime Probe::stop() {
  lap();
  timing_ = false;
  return timed_;
}

void Probe::lap() {
  timed_ += at_reference_speed(cpu_seconds() - mark_, core_share_);
  mark_ = cpu_seconds();  // the reference itself is not measured
}

double Probe::imbalance_cv() const {
  if (cv_.empty()) return 0;
  double sum = 0;
  for (const double x : cv_) sum += x;
  return sum / static_cast<double>(cv_.size());
}

void Probe::fire() {
  if (timing_) lap();
  cluster::MdsCluster& c = s_.cluster();
  std::vector<double> delta(prev_.size());
  for (std::size_t m = 0; m < prev_.size(); ++m) {
    const std::uint64_t done =
        c.node(static_cast<mds::MdsRank>(m)).stats().completed;
    delta[m] = static_cast<double>(done - prev_[m]);
    prev_[m] = done;
  }
  cv_.push_back(cv_of(delta));
  bool saturated = false;
  for (const auto& p : s_.populations()) {
    outstanding_max_ = std::max(outstanding_max_, p->outstanding());
    saturated = saturated || p->outstanding() >= p->config().max_outstanding;
  }
  saturated_ += saturated ? 1 : 0;
  if (walks_on_ && cv_.size() % static_cast<std::size_t>(walk_every_) == 0)
    snapshot();
}

void Probe::snapshot() {
  cluster::MdsCluster& c = s_.cluster();
  ++walks_.snapshots;
  mds::MdsRank busiest = 0;
  std::size_t most = 0;
  for (mds::MdsRank r = 0; r < c.num_mds(); ++r) {
    const auto t0 = Clock::now();
    const std::size_t n = c.auth_entry_count(r);
    walks_.auth_entry_count_ns += ns_since(t0);
    ++walks_.auth_entry_count_calls;
    if (n > most) {
      most = n;
      busiest = r;
    }
  }
  balancers::OriginalBalancer fresh;
  double load = 0;
  for (const mds::DirFragId& root : c.roots_of(busiest)) {
    auto t0 = Clock::now();
    const cluster::PopSnapshot pop = c.subtree_pop(root, busiest, kFrozenClock);
    walks_.subtree_pop_ns += ns_since(t0);
    ++walks_.subtree_pop_calls;
    load += fresh.metaload(pop);
    t0 = Clock::now();
    c.subtree_entry_count(root, busiest);
    walks_.entry_count_ns += ns_since(t0);
    ++walks_.entry_count_calls;
  }
  const auto t0 = Clock::now();
  const std::vector<cluster::ExportCandidate> cands = c.gather_candidates(
      busiest, load / c.num_mds(), fresh, kFrozenClock);
  walks_.gather_ns += ns_since(t0);
  walks_.gather_candidates += cands.size();
}

// -- Dumps ------------------------------------------------------------------

const char* dump_name(int which) {
  static const char* const kNames[kNumDumps] = {
      "metrics_json", "prometheus", "trace_json", "perfetto",
      "provenance_json"};
  return kNames[which];
}

std::string serialize_dump(const cluster::MdsCluster& c, int which) {
  switch (which) {
    case 0: return c.metrics().to_json();
    case 1: return c.metrics().to_prometheus();
    case 2: return c.trace().to_json();
    case 3: return c.trace().to_perfetto();
    case 4: return c.provenance().to_json();
    default: throw std::out_of_range("no such dump");
  }
}

// -- Runs -------------------------------------------------------------------

HostTime setup_workload(const std::string& workload, std::uint64_t seed) {
  obs::Profiler::instance().set_enabled(false);
  const auto t0 = Clock::now();
  double setup_s = 0;
  {
    Built b = build(workload, seed, false);
    setup_s = seconds_since(t0);
  }
  return at_reference_speed(setup_s);
}

RunResult run_workload(const std::string& workload, std::uint64_t seed,
                       bool traced) {
  // A migration ordered on the last balancer tick would otherwise stay
  // open; load is gone by then, so the drain ends well inside this bound.
  constexpr int kMaxDrainSeconds = 60;
  obs::Profiler& prof = obs::Profiler::instance();
  prof.set_enabled(false);

  RunResult r;
  const auto t_setup = Clock::now();
  Built b = build(workload, seed, traced);
  r.setup = at_reference_speed(seconds_since(t_setup));
  sim::Scenario& s = *b.s;
  cluster::MdsCluster& c = s.cluster();

  if (traced) {
    prof.reset();
    prof.set_enabled(true);
  }
  b.probe->start(b.run_core_share);
  s.run();
  for (int i = 0; i < kMaxDrainSeconds && (c.active_migration_count() > 0 ||
                                           c.dead_letter_size() > 0);
       ++i)
    s.run_extra(kSec);
  r.wall = b.probe->stop();
  prof.set_enabled(false);
  const auto phases = prof.snapshot();

  // Serialize one document at a time so a 512-rank run never holds all
  // five in memory at once. Every pass is timed, at least two and more
  // while a small budget lasts, and the median counts: a millisecond dump
  // gets nine samples, a 512-rank run's multi-second dump two.
  constexpr int kMinDumpPasses = 2;
  constexpr int kMaxDumpPasses = 9;
  constexpr double kDumpBudgetS = 0.1;
  std::vector<double> part_s[kNumDumps];
  std::vector<HostTime> pass_t;
  std::uint64_t dump_bytes = 0;
  r.digest = 1469598103934665603ull;
  double spent = 0;
  for (int pass = 0; pass < kMinDumpPasses ||
                     (pass < kMaxDumpPasses && spent < kDumpBudgetS);
       ++pass) {
    HostTime total;
    for (int i = 0; i < kNumDumps; ++i) {
      const auto t0 = Clock::now();
      const std::string doc = serialize_dump(c, i);
      const HostTime t = at_reference_speed(seconds_since(t0));
      part_s[i].push_back(t.host_s);
      total += t;
      if (pass == 0) {
        dump_bytes += doc.size();
        r.digest = fnv1a(r.digest, doc);
      }
    }
    pass_t.push_back(total);
    spent += total.host_s;
  }
  r.dump = median(pass_t);

  // -- outcome and correctness gate ------------------------------------------
  std::uint64_t retries = 0;
  for (const auto& cl : s.clients()) {
    if (!cl->done())
      r.failures.push_back("client " + std::to_string(cl->id()) +
                           " has an unresolved op");
    r.modeled_ops += cl->ops_completed();
    r.attempted += cl->ops_completed() + cl->ops_failed();
    r.failed += cl->ops_failed();
    retries += cl->retries();
    r.lat_count += cl->latencies_ms().count();
  }
  for (const auto& p : s.populations()) {
    if (!p->done() || p->outstanding() != 0)
      r.failures.push_back("population " + std::to_string(p->id()) + " has " +
                           std::to_string(p->outstanding()) +
                           " requests outstanding");
    r.modeled_ops += p->modeled_ops_completed();
    r.attempted += p->arrivals();
    r.failed += p->sim_ops_failed();
    retries += p->retries();
    r.lat_count += p->latencies_ms().count();
  }
  if (c.active_migration_count() != 0)
    r.failures.push_back(std::to_string(c.active_migration_count()) +
                         " migrations open after the drain");
  if (c.dead_letter_size() != 0)
    r.failures.push_back(std::to_string(c.dead_letter_size()) +
                         " dead letters parked after the drain");
  // After the dumps: a violation is mirrored into the trace sink.
  chaos::InvariantChecker inv(c);
  inv.check_quiesce(s.sim_now());
  for (const chaos::Violation& v : inv.violations())
    r.failures.push_back("invariant " + v.invariant + ": " + v.detail);

  obs::MetricsRegistry& reg = c.metrics();
  r.events = static_cast<std::uint64_t>(
      counter(reg, "sim_events_dispatched_total"));
  const SampleSet lat = s.pooled_latencies_ms();
  r.lat_samples = lat.count();
  r.trace_truncated = c.trace().dropped_events() > 0;
  r.provenance_truncated = c.provenance().dropped() > 0;
  r.pop_saturated = b.probe->pop_slot_saturated() > 0;
  r.params = b.params;

  r.sim["sim_ops_per_s"] = s.aggregate_throughput();
  r.sim["sim_lat_p50_ms"] = lat.percentile(0.50);
  r.sim["sim_lat_p99_ms"] = lat.percentile(0.99);
  r.sim["sim_makespan_s"] = to_seconds(s.makespan());
  r.sim["imbalance_cv"] = b.probe->imbalance_cv();
  r.sim["ok_op_frac"] = 1.0 - ratio(num(r.failed), num(r.attempted));
  // Probe first: the scenario holds a callback into it; the injector last:
  // the cluster points at it.
  const auto finish = [&]() {
    b.probe.reset();
    b.s.reset();
    b.faults.reset();
    return std::move(r);
  };
  if (!traced) return finish();

  // -- per-layer metrics ----------------------------------------------------
  Metrics& m = r.layers;
  const auto self_s = [&](obs::ProfilePhase p) {
    return phases[static_cast<std::size_t>(p)].self_ns / 1e9;
  };
  const WalkStats& w = b.probe->walks();
  const double snaps = num(w.snapshots);

  m["cluster.tick_self_s"] = self_s(obs::ProfilePhase::ClusterTick);
  m["cluster.ticks"] = num(
      phases[static_cast<std::size_t>(obs::ProfilePhase::ClusterTick)].scopes);
  m["cluster.gather_ms"] = ratio(w.gather_ns / 1e6, snaps);
  m["cluster.gather_candidates"] = ratio(num(w.gather_candidates), snaps);
  m["cluster.hb_sent"] = counter(reg, "mds_heartbeats_sent_total");
  m["cluster.hb_received"] = counter(reg, "mds_heartbeats_received_total");
  m["cluster.hb_dropped"] = counter(reg, "mds_heartbeats_dropped_total");
  m["cluster.hb_stale_rejected"] = num(c.stale_heartbeats_rejected());
  const double completed = counter(reg, "mds_requests_completed_total");
  m["cluster.requests_completed"] = completed;
  m["cluster.forward_ratio"] =
      ratio(counter(reg, "mds_forwards_total"), completed);
  const double go = counter(reg, "bal_when_true_total");
  m["cluster.when_go_ratio"] =
      ratio(go, go + counter(reg, "bal_when_false_total"));
  const double started = counter(reg, "migrations_started_total");
  m["cluster.exports_started"] = started;
  m["cluster.export_commit_ratio"] =
      ratio(counter(reg, "migrations_committed_total"), started);
  m["cluster.exports_aborted"] = counter(reg, "migrations_aborted_total");
  m["cluster.exports_retried"] = counter(reg, "migrations_retried_total");
  m["cluster.sessions_flushed"] = num(c.total_sessions_flushed());
  m["cluster.splits"] = counter(reg, "dirfrag_splits_total");
  m["cluster.dead_letter_parked"] = counter(reg, "dead_letter_parked_total");
  m["cluster.requests_dropped"] = num(c.requests_dropped());

  m["mds.subtree_pop_us"] =
      ratio(w.subtree_pop_ns / 1e3, num(w.subtree_pop_calls));
  m["mds.subtree_pop_calls"] = num(w.subtree_pop_calls);
  m["mds.entry_count_us"] =
      ratio(w.entry_count_ns / 1e3, num(w.entry_count_calls));
  m["mds.auth_entry_count_us"] =
      ratio(w.auth_entry_count_ns / 1e3, num(w.auth_entry_count_calls));
  const mds::Namespace& ns = c.ns();
  m["mds.dentries"] = num(ns.num_inodes() - 1);  // every inode but the root
  std::size_t dirfrags = 0;
  for (const mds::InodeId d : ns.subtree_dirs(ns.root()))
    if (const mds::Dir* dir = ns.dir(d)) dirfrags += dir->frags.size();
  m["mds.dirfrags"] = num(dirfrags);

  std::array<HookTimer::HookTime, HookTimer::kNumHooks> hooks{};
  cluster::Balancer::EvalStats ev;
  for (const HookTimer* t : b.timers) {
    for (int h = 0; h < HookTimer::kNumHooks; ++h) {
      hooks[h].calls += t->times()[h].calls;
      hooks[h].ns += t->times()[h].ns;
    }
    const cluster::Balancer::EvalStats e = t->eval_stats();
    ev.lua_steps += e.lua_steps;
    ev.hook_errors += e.hook_errors;
    ev.cache_hits += e.cache_hits;
    ev.cache_misses += e.cache_misses;
  }
  m["core.metaload_calls"] = num(hooks[HookTimer::kMetaload].calls);
  m["core.metaload_s"] = hooks[HookTimer::kMetaload].ns / 1e9;
  m["core.mdsload_calls"] = num(hooks[HookTimer::kMdsload].calls);
  m["core.mdsload_s"] = hooks[HookTimer::kMdsload].ns / 1e9;
  m["core.when_s"] = hooks[HookTimer::kWhen].ns / 1e9;
  m["core.where_s"] = hooks[HookTimer::kWhere].ns / 1e9;
  m["core.howmuch_s"] = hooks[HookTimer::kHowmuch].ns / 1e9;
  m["core.hook_eval_self_s"] = self_s(obs::ProfilePhase::HookEval);
  m["lua.steps"] = num(ev.lua_steps);
  m["lua.cache_hit_ratio"] =
      ratio(num(ev.cache_hits), num(ev.cache_hits + ev.cache_misses));
  m["lua.hook_errors"] = num(ev.hook_errors);

  const sim::EventPool::Stats pool = s.sim_pool_stats();
  m["sim.events"] = num(r.events);
  m["sim.dispatch_self_s"] = self_s(obs::ProfilePhase::EngineDispatch);
  m["sim.population_sample_s"] = self_s(obs::ProfilePhase::PopulationSample);
  m["sim.pool_peak_live_events"] = num(pool.peak_live);
  m["sim.pool_bytes"] = num(pool.bytes_reserved);
  m["sim.client_retries"] = num(retries);
  m["sim.lat_samples"] = num(r.lat_samples);
  m["sim.pop_outstanding_max"] = num(b.probe->pop_outstanding_max());
  m["sim.pop_slot_saturated"] = num(b.probe->pop_slot_saturated());

  for (int i = 0; i < kNumDumps; ++i)
    m[std::string("obs.") + dump_name(i) + "_s"] = median(part_s[i]);
  m["obs.dump_bytes"] = num(dump_bytes);
  m["obs.trace_events"] = num(c.trace().size());
  m["obs.trace_dropped"] = num(c.trace().dropped_events());
  m["obs.provenance_dropped"] = num(c.provenance().dropped());

  fault::FaultCounters fc;
  if (b.faults != nullptr) fc = b.faults->counters();
  m["fault.crashes"] = num(fc.crashes);
  m["fault.hb_dropped"] = num(fc.hb_dropped);
  m["fault.hb_delayed"] = num(fc.hb_delayed);
  m["chaos.violations"] = num(inv.violations().size());
  return finish();
}

}  // namespace mantle::perfbench

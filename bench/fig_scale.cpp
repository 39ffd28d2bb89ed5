#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/population.hpp"

/// \file fig_scale.cpp
/// Scale sweep for the rebuilt event engine (docs/PERFORMANCE.md,
/// "scaling the simulator to 512 ranks"): 16 -> 128 -> 512 MDS ranks
/// driven by 10k -> 100k -> 1M modeled clients. Clients
/// scale as mean-field ClientPopulation aggregates (each simulated request
/// stands for `weight` modeled ops), so the event count tracks the
/// sampling rate, not the client count; a handful of object clients ride
/// along at every point to exercise the mixed path. A naive
/// one-object-per-client baseline at the largest pre-rebuild scale
/// anchors the speedup figure. Emits BENCH_scale.json:
///   - per point: wall seconds, engine events (and /sec), modeled ops
///     (and /sec), peak live events + pooled bytes (the RSS proxy),
///     per-second imbalance-CV series over per-rank completions,
///     forwards, migrations;
///   - baseline ops/sec and the modeled-throughput speedup vs it;
///   - a same-seed determinism self-check (identical metrics snapshots).
/// With MANTLE_OBS_DIR set, every point dumps metrics + traces for
/// `mantle-stat --check`.

namespace {

using namespace mantle;  // NOLINT

struct PointResult {
  int ranks = 0;
  std::uint64_t modeled_clients = 0;
  double wall_s = 0;
  double makespan_s = 0;
  std::uint64_t engine_events = 0;
  std::uint64_t sim_ops = 0;
  std::uint64_t modeled_ops = 0;
  std::uint64_t forwards = 0;
  std::uint64_t migrations = 0;
  std::size_t peak_live_events = 0;
  std::size_t pool_bytes = 0;
  std::vector<double> cv_series;
  double cv_mean = 0;
  std::string metrics_json;  // determinism self-check payload
};

double wall_seconds_since(
    const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Coefficient of variation across per-rank values (0 when flat or idle).
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

PointResult run_point(int ranks, std::uint64_t modeled_clients, bool quick,
                      std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = ranks;
  cfg.cluster.seed = seed;
  cfg.cluster.split_size = quick ? 1000 : 5000;
  cfg.cluster.bal_interval = quick ? kSec : 10 * kSec;
  const Time duration = quick ? 3 * kSec : 20 * kSec;
  cfg.max_time = duration + 30 * kSec;

  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });

  // A few object clients coexist with the aggregates on the same id space.
  for (int c = 0; c < 4; ++c)
    s.add_client(workloads::make_private_create_workload(
        c, quick ? 50 : 200, 100));

  // Population aggregates: flows spread across per-population subtrees so
  // the balancer has subtrees to migrate between ranks.
  const int npops = std::clamp(ranks / 8, 1, 16);
  const int dirs_per_pop = std::clamp(ranks / npops, 4, 64);
  // The sampling rate is the mean-field knob: it grows with the cluster
  // until a cap, past which each simulated request simply stands for more
  // modeled ops (higher weight) instead of adding events. This is what
  // decouples the event count from the modeled client count.
  const double total_sim_rate = std::min(40.0 * ranks, 6144.0);
  for (int p = 0; p < npops; ++p) {
    sim::PopulationConfig pc;
    pc.modeled_clients = modeled_clients / static_cast<std::uint64_t>(npops);
    pc.ops_per_client = 1.0;
    pc.sim_rate = total_sim_rate / npops;
    pc.duration = duration;
    pc.tick = 50 * kMsec;
    pc.create_frac = 0.3;
    for (int d = 0; d < dirs_per_pop; ++d)
      pc.dirs.push_back("/scale" + std::to_string(p) + "/d" +
                        std::to_string(d));
    s.add_population(pc);
  }

  // Imbalance probe: CV across ranks of per-second completion deltas.
  PointResult r;
  r.ranks = ranks;
  r.modeled_clients = modeled_clients;
  std::vector<std::uint64_t> prev(static_cast<std::size_t>(ranks), 0);
  s.add_probe(quick ? 500 * kMsec : kSec, [&](Time) {
    std::vector<double> delta(prev.size());
    for (int m = 0; m < ranks; ++m) {
      const std::uint64_t done = s.cluster().node(m).stats().completed;
      delta[static_cast<std::size_t>(m)] =
          static_cast<double>(done - prev[static_cast<std::size_t>(m)]);
      prev[static_cast<std::size_t>(m)] = done;
    }
    r.cv_series.push_back(cv_of(delta));
  });

  const auto t0 = std::chrono::steady_clock::now();
  s.run();
  // Let in-flight 2PC exports finish: a migration started on the last
  // balancer tick would otherwise sit open in the trace and trip the
  // stuck-export detector. Bounded — load is gone, so no new exports
  // start once the active set drains.
  for (int i = 0; i < 30 && s.cluster().active_migration_count() > 0; ++i)
    s.run_extra(kSec);
  r.wall_s = wall_seconds_since(t0);

  r.makespan_s = to_seconds(s.makespan());
  r.engine_events = static_cast<std::uint64_t>(
      s.cluster().metrics().counter("sim_events_dispatched_total").value());
  for (const auto& p : s.populations()) {
    r.sim_ops += p->sim_ops_completed();
    r.modeled_ops += p->modeled_ops_completed();
  }
  for (const auto& c : s.clients()) r.modeled_ops += c->ops_completed();
  r.forwards = s.cluster().total_forwards();
  r.migrations = s.cluster().migrations().size();
  const auto pool = s.sim_pool_stats();
  r.peak_live_events = pool.peak_live;
  r.pool_bytes = pool.bytes_reserved;
  for (const double cv : r.cv_series) r.cv_mean += cv;
  if (!r.cv_series.empty())
    r.cv_mean /= static_cast<double>(r.cv_series.size());
  r.metrics_json = s.cluster().metrics().to_json();

  bench::dump_observability("fig_scale_r" + std::to_string(ranks), seed, s);
  return r;
}

/// The pre-rebuild shape: one object client per simulated client, at the
/// largest point the old engine could hold. Modeled ops == real ops.
PointResult run_baseline(bool quick, std::uint64_t seed) {
  const int ranks = 16;
  // Big enough that wall time is a stable measurement (hundreds of ms),
  // small enough that the old engine's shape could still have held it.
  const int clients = quick ? 100 : 1000;
  sim::ScenarioConfig cfg;
  cfg.cluster.num_mds = ranks;
  cfg.cluster.seed = seed;
  cfg.cluster.split_size = quick ? 1000 : 5000;
  cfg.cluster.bal_interval = quick ? kSec : 10 * kSec;
  cfg.max_time = 60 * kSec;

  sim::Scenario s(cfg);
  s.cluster().set_balancer_all(
      [](int) { return std::make_unique<balancers::OriginalBalancer>(); });
  for (int c = 0; c < clients; ++c)
    s.add_client(workloads::make_private_create_workload(
        c, quick ? 20 : 120, 100));

  const auto t0 = std::chrono::steady_clock::now();
  s.run();

  PointResult r;
  r.ranks = ranks;
  r.modeled_clients = static_cast<std::uint64_t>(clients);
  r.wall_s = wall_seconds_since(t0);
  r.makespan_s = to_seconds(s.makespan());
  r.engine_events = static_cast<std::uint64_t>(
      s.cluster().metrics().counter("sim_events_dispatched_total").value());
  for (const auto& c : s.clients()) r.modeled_ops += c->ops_completed();
  r.sim_ops = r.modeled_ops;
  const auto pool = s.engine().pool_stats();
  r.peak_live_events = pool.peak_live;
  r.pool_bytes = pool.bytes_reserved;
  bench::dump_observability("fig_scale_baseline", seed, s);
  return r;
}

void print_point_json(std::FILE* f, const PointResult& r, bool last) {
  std::fprintf(f,
               "    {\"ranks\": %d, \"modeled_clients\": %" PRIu64
               ", \"wall_s\": %.3f, \"makespan_s\": %.3f,\n"
               "     \"engine_events\": %" PRIu64
               ", \"engine_events_per_sec\": %.0f,\n"
               "     \"sim_ops\": %" PRIu64 ", \"modeled_ops\": %" PRIu64
               ", \"modeled_ops_per_sec\": %.0f,\n"
               "     \"peak_live_events\": %zu, \"pool_bytes\": %zu,\n"
               "     \"forwards\": %" PRIu64 ", \"migrations\": %" PRIu64
               ", \"imbalance_cv_mean\": %.4f,\n"
               "     \"imbalance_cv\": [",
               r.ranks, r.modeled_clients, r.wall_s, r.makespan_s,
               r.engine_events,
               r.wall_s > 0 ? static_cast<double>(r.engine_events) / r.wall_s
                            : 0.0,
               r.sim_ops, r.modeled_ops,
               r.wall_s > 0 ? static_cast<double>(r.modeled_ops) / r.wall_s
                            : 0.0,
               r.peak_live_events, r.pool_bytes, r.forwards, r.migrations,
               r.cv_mean);
  for (std::size_t i = 0; i < r.cv_series.size(); ++i)
    std::fprintf(f, "%s%.4f", i ? ", " : "", r.cv_series[i]);
  std::fprintf(f, "]}%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = mantle::bench::quick_mode(argc, argv);
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[i + 1];
  }
  const std::uint64_t seed = 42;

  struct Point {
    int ranks;
    std::uint64_t clients;
  };
  const std::vector<Point> sweep =
      quick ? std::vector<Point>{{4, 10'000}, {8, 50'000}, {16, 100'000}}
            : std::vector<Point>{{16, 10'000}, {128, 100'000}, {512, 1'000'000}};

  std::printf("## fig_scale — %s sweep (seed %llu)\n", quick ? "quick" : "full",
              static_cast<unsigned long long>(seed));

  std::printf("baseline: one object client per modeled client (old shape)\n");
  const PointResult base = run_baseline(quick, seed);
  std::printf(
      "  16 ranks, %" PRIu64 " clients: %.2fs wall, %" PRIu64
      " ops (%.0f ops/s), %" PRIu64 " engine events\n",
      base.modeled_clients, base.wall_s, base.modeled_ops,
      base.wall_s > 0 ? static_cast<double>(base.modeled_ops) / base.wall_s : 0,
      base.engine_events);

  std::vector<PointResult> points;
  for (const Point& p : sweep) {
    PointResult r = run_point(p.ranks, p.clients, quick, seed);
    std::printf(
        "  %3d ranks / %7" PRIu64 " modeled: %.2fs wall, %" PRIu64
        " engine events (%.0f/s), %" PRIu64
        " modeled ops (%.0f/s), peak live %zu, cv %.3f, fwd %" PRIu64
        ", mig %" PRIu64 "\n",
        r.ranks, r.modeled_clients, r.wall_s, r.engine_events,
        r.wall_s > 0 ? static_cast<double>(r.engine_events) / r.wall_s : 0,
        r.modeled_ops,
        r.wall_s > 0 ? static_cast<double>(r.modeled_ops) / r.wall_s : 0,
        r.peak_live_events, r.cv_mean, r.forwards, r.migrations);
    points.push_back(std::move(r));
  }

  // Determinism self-check: the smallest point, same seed, must reproduce
  // the exact metrics snapshot (counter for counter).
  const PointResult again =
      run_point(sweep.front().ranks, sweep.front().clients, quick, seed);
  const bool deterministic = again.metrics_json == points.front().metrics_json;
  std::printf("determinism self-check (%d ranks, same seed): %s\n",
              sweep.front().ranks, deterministic ? "identical" : "DIVERGED");

  const double base_rate =
      base.wall_s > 0 ? static_cast<double>(base.modeled_ops) / base.wall_s : 0;
  const double top_rate =
      points.back().wall_s > 0
          ? static_cast<double>(points.back().modeled_ops) /
                points.back().wall_s
          : 0;
  const double speedup = base_rate > 0 ? top_rate / base_rate : 0;
  std::printf("modeled throughput speedup vs per-object baseline: %.1fx\n",
              speedup);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig_scale\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(seed));
  std::fprintf(f,
               "  \"baseline\": {\"ranks\": %d, \"clients\": %" PRIu64
               ", \"wall_s\": %.3f, \"ops\": %" PRIu64
               ", \"ops_per_sec\": %.0f, \"engine_events\": %" PRIu64 "},\n",
               base.ranks, base.modeled_clients, base.wall_s, base.modeled_ops,
               base_rate, base.engine_events);
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i)
    print_point_json(f, points[i], i + 1 == points.size());
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_vs_baseline\": %.2f,\n", speedup);
  std::fprintf(f, "  \"determinism_ok\": %s\n}\n",
               deterministic ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  mantle::bench::print_phase_profile();
  return deterministic ? 0 : 1;
}

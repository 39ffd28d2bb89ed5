#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "sim/client.hpp"
#include "sim/engine.hpp"
#include "sim/population.hpp"

/// \file scenario.hpp
/// Experiment runner: wires an engine, a cluster and a set of clients
/// together, runs to completion (or a horizon) and exposes the metrics the
/// paper's figures are made of: per-client runtimes, latency
/// distributions, per-MDS throughput timelines, forwards/hits, session
/// flushes and the migration log. Everything runs on one engine, so a
/// scenario is a pure function of its config and seeds.

namespace mantle::sim {

struct ScenarioConfig {
  cluster::ClusterConfig cluster;
  Time max_time = 60 * mantle::kMinute;  // safety horizon
  RetryPolicy retry;                     // client fault tolerance (off by default)
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);

  Engine& engine() { return engine_; }
  cluster::MdsCluster& cluster() { return *cluster_; }

  Time sim_now() const { return engine_.now(); }
  EventPool::Stats sim_pool_stats() const { return engine_.pool_stats(); }
  /// Run the simulation a further `span` past its current clock
  /// (post-run drain loops in the bench harness use this). Returns, like
  /// run(), with every heartbeat that landed by then applied.
  void run_extra(Time span);

  /// Add a closed-loop client running the given workload. Returns its id.
  int add_client(std::unique_ptr<Workload> wl);

  /// Add a mean-field client population (N modeled clients as sampled
  /// per-dirfrag arrival flows). Shares the dense client-id space with
  /// object clients; returns the population's id.
  int add_population(PopulationConfig cfg);

  /// Register a periodic probe (e.g. heat-map sampling for Figure 1).
  /// Probes stop firing when the scenario ends.
  void add_probe(Time interval, std::function<void(Time)> fn);

  /// Run until every client finished or cfg.max_time. Returns makespan
  /// (time of the last client finishing, or the horizon). Heartbeats that
  /// landed by then are applied (MdsCluster::settle_heartbeats()), so the
  /// tables and heartbeat counters read afterwards are whole.
  Time run();

  // -- Results -----------------------------------------------------------------
  const std::vector<std::unique_ptr<Client>>& clients() const { return clients_; }
  const std::vector<std::unique_ptr<ClientPopulation>>& populations() const {
    return populations_;
  }
  /// The object client with this id. Ids are shared with populations;
  /// asking for a population's id here throws.
  Client& client(int id);
  ClientPopulation& population(int id);

  /// Makespan of the last run.
  Time makespan() const { return makespan_; }

  /// All client latencies pooled (milliseconds); populations contribute
  /// their retained reservoir samples.
  mantle::SampleSet pooled_latencies_ms() const;

  /// Aggregate client-visible throughput (completed ops / makespan).
  /// Populations contribute weight-scaled modeled ops.
  double aggregate_throughput() const;

 private:
  /// One slot of the dense client-id space: exactly one pointer is set.
  /// Replies and results dispatch through here, so object clients and
  /// population aggregates coexist against the same cluster.
  struct Sink {
    Client* client = nullptr;
    ClientPopulation* pop = nullptr;
  };

  ScenarioConfig cfg_;
  Engine engine_;
  std::unique_ptr<cluster::MdsCluster> cluster_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<ClientPopulation>> populations_;
  std::vector<Sink> sinks_;

  struct Probe {
    Time interval;
    std::function<void(Time)> fn;
  };
  std::vector<Probe> probes_;
  bool running_ = false;
  Time makespan_ = 0;
};

}  // namespace mantle::sim

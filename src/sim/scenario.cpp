#include "sim/scenario.hpp"

#include <algorithm>
#include <stdexcept>

namespace mantle::sim {

Scenario::Scenario(ScenarioConfig cfg) : cfg_(cfg) {
  cluster_ = std::make_unique<cluster::MdsCluster>(engine_, cfg_.cluster);
  engine_.set_metrics(&cluster_->metrics());
  cluster_->set_reply_handler([this](const cluster::Reply& rep) {
    if (rep.client < 0 || static_cast<std::size_t>(rep.client) >= sinks_.size())
      return;
    const Sink& s = sinks_[static_cast<std::size_t>(rep.client)];
    if (s.client != nullptr)
      s.client->on_reply(rep);
    else if (s.pop != nullptr)
      s.pop->on_reply(rep);
  });
}

int Scenario::add_client(std::unique_ptr<Workload> wl) {
  const int id = static_cast<int>(sinks_.size());
  // Each client gets an independent deterministic stream derived from the
  // scenario seed and its id.
  Rng rng(cfg_.cluster.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(id) + 1);
  clients_.push_back(
      std::make_unique<Client>(id, *cluster_, std::move(wl), rng, cfg_.retry));
  sinks_.push_back({clients_.back().get(), nullptr});
  return id;
}

int Scenario::add_population(PopulationConfig pcfg) {
  const int id = static_cast<int>(sinks_.size());
  Rng rng(cfg_.cluster.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(id) + 1);
  populations_.push_back(std::make_unique<ClientPopulation>(
      id, *cluster_, std::move(pcfg), rng));
  sinks_.push_back({nullptr, populations_.back().get()});
  return id;
}

Client& Scenario::client(int id) {
  Client* c = sinks_.at(static_cast<std::size_t>(id)).client;
  if (c == nullptr) throw std::out_of_range("id is not an object client");
  return *c;
}

ClientPopulation& Scenario::population(int id) {
  ClientPopulation* p = sinks_.at(static_cast<std::size_t>(id)).pop;
  if (p == nullptr) throw std::out_of_range("id is not a population");
  return *p;
}

void Scenario::add_probe(Time interval, std::function<void(Time)> fn) {
  probes_.push_back({interval, std::move(fn)});
}

Time Scenario::run() {
  cluster_->start();
  for (auto& c : clients_) c->start();
  for (auto& p : populations_) p->start();

  // Periodic probes re-arm themselves while the scenario runs.
  struct Rearm {
    Scenario* s;
    const Probe* p;
    void operator()() const {
      if (!s->running_) return;
      p->fn(s->sim_now());
      s->engine_.schedule_after(p->interval, Rearm{s, p});
    }
  };
  for (const Probe& p : probes_)
    engine_.schedule_after(p.interval, Rearm{this, &p});

  running_ = true;
  constexpr Time kSlice = kSec;  // completion-check granularity
  while (sim_now() < cfg_.max_time) {
    const bool all_done = [&] {
      for (const auto& c : clients_)
        if (!c->done()) return false;
      for (const auto& p : populations_)
        if (!p->done()) return false;
      return true;
    }();
    if (all_done) break;
    engine_.run_until(sim_now() + kSlice);
    if (engine_.empty()) break;  // deadlock guard; should not happen
  }
  running_ = false;
  cluster_->settle_heartbeats();

  makespan_ = 0;
  for (const auto& c : clients_)
    makespan_ = std::max(makespan_, c->done() ? c->finished_at() : sim_now());
  for (const auto& p : populations_)
    makespan_ = std::max(makespan_, p->done() ? p->finished_at() : sim_now());
  return makespan_;
}

void Scenario::run_extra(Time span) {
  engine_.run_until(sim_now() + span);
  cluster_->settle_heartbeats();
}

mantle::SampleSet Scenario::pooled_latencies_ms() const {
  mantle::SampleSet all;
  for (const auto& c : clients_)
    for (const double x : c->latencies_ms().samples()) all.add(x);
  for (const auto& p : populations_)
    for (const double x : p->latencies_ms().samples()) all.add(x);
  return all;
}

double Scenario::aggregate_throughput() const {
  std::uint64_t ops = 0;
  for (const auto& c : clients_) ops += c->ops_completed();
  for (const auto& p : populations_) ops += p->modeled_ops_completed();
  const double secs = to_seconds(makespan_);
  return secs > 0.0 ? static_cast<double>(ops) / secs : 0.0;
}

}  // namespace mantle::sim

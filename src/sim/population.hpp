#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/client.hpp"

/// \file population.hpp
/// A mean-field client aggregate: one object stands in for N modeled
/// clients (up to ~1M) hammering a set of directories. Instead of one
/// closed loop per client — which caps simulations at a few thousand
/// clients — the population issues sampled request arrivals per dirfrag
/// flow, where each simulated request represents weight() modeled ops.
/// Simulated requests travel the real cluster path (network latency,
/// forwards on stale caches, session-flush stalls, retries after crashes),
/// so balancer-visible load, forward rates and latency tails behave like a
/// population of real clients while the event count stays bounded by the
/// sampling rate, not the client count.

namespace mantle::sim {

struct PopulationConfig {
  /// How many clients this flow stands for (reporting + weight).
  std::uint64_t modeled_clients = 10000;
  /// Modeled per-client op rate (ops/sec); modeled aggregate arrival rate
  /// is modeled_clients * ops_per_client.
  double ops_per_client = 1.0;
  /// Simulated request arrivals per second for the whole population: the
  /// sampling rate. This — not modeled_clients — is what the event queue
  /// pays for.
  double sim_rate = 2000.0;

  Time tick = 50 * kMsec;       ///< arrival-batch granularity
  Time duration = 30 * kSec;    ///< arrival-generation window
  /// Bound on simulated in-flight requests (slot pool; must be < 2^20).
  /// Arrivals finding no free slot carry over to the next tick.
  std::size_t max_outstanding = 8192;

  /// Op mix: fraction of arrivals that create a fresh dentry; the rest
  /// split evenly between Getattr and Lookup on names whose create has
  /// completed (a flow with none creates regardless, so reads have
  /// targets).
  double create_frac = 0.5;

  /// Same semantics as Client: 0 timeout disables retries. Without
  /// retries a request dropped by a dead rank leaks its slot until the
  /// scenario horizon, so faulty runs should enable this.
  RetryPolicy retry;

  /// Directory flows, equally popular. Paths are bootstrap-created
  /// directly in the namespace at start() (admin setup, no heat).
  /// Empty = {"/pop<id>"}.
  std::vector<std::string> dirs;
};

/// The aggregate itself. Shares Scenario's dense client-id space with
/// object Clients: all its requests carry the population's single id, and
/// replies route back through Scenario's sink table.
class ClientPopulation {
 public:
  ClientPopulation(int id, cluster::MdsCluster& cluster, PopulationConfig cfg,
                   Rng rng);

  int id() const { return id_; }
  const PopulationConfig& config() const { return cfg_; }

  /// Bootstrap the directory flows and arm the first arrival tick.
  void start();

  /// Scenario routes replies here by client id.
  void on_reply(const cluster::Reply& rep);

  /// True once the arrival window closed and every in-flight simulated
  /// request resolved.
  bool done() const { return done_; }
  Time started_at() const { return started_at_; }
  Time finished_at() const { return finished_at_; }

  /// Modeled ops per simulated request:
  /// ceil(modeled_clients * ops_per_client / sim_rate), at least 1.
  std::uint64_t weight() const { return weight_; }

  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t sim_ops_completed() const { return sim_completed_; }
  std::uint64_t sim_ops_failed() const { return sim_failed_; }
  /// Weight-scaled completions: what the flow stands for.
  std::uint64_t modeled_ops_completed() const {
    return sim_completed_ * weight_;
  }
  std::uint64_t forwards_seen() const { return forwards_seen_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t stale_replies() const { return stale_replies_; }
  std::size_t outstanding() const { return outstanding_; }

  /// Sampled per-request latency tail (milliseconds). Uniform over
  /// simulated requests, which all carry equal weight.
  const mantle::ReservoirSample& latencies_ms() const { return latencies_; }

  /// Flow-weighted mean of the per-dirfrag hit-model EMAs: the
  /// population's current belief in its own auth cache.
  double hit_rate_estimate() const;

 private:
  /// Per-dirfrag learned authority: current belief, the previous belief
  /// (what a straggler modeled client would still use), and an EMA of
  /// forward-free replies. A guess uses the current belief with
  /// probability hit_ema, else the stale one — so forwards persist after
  /// a migration in proportion to how recently the flow re-learned.
  struct FragBelief {
    mds::MdsRank auth = 0;
    mds::MdsRank prev_auth = 0;
    double hit_ema = 0.5;
  };

  /// One simulated in-flight request. `gen` is bumped on every issue,
  /// retry and resolve, and is encoded into the request id, so late
  /// replies identify themselves by mismatch. The armed retry timeout is
  /// cancelled when the request resolves.
  struct Slot {
    std::uint64_t gen = 0;
    EventId timer;
    bool inflight = false;
    Time issued_at = 0;
    int attempt = 0;
    Time backoff = 0;
    mds::MdsRank last_guess = 0;
    std::size_t dir = 0;
    cluster::OpType op = cluster::OpType::Getattr;
    std::uint64_t index = 0;  ///< the flow's name index
    std::string name;
  };

  struct Flow {
    std::string path;
    mds::InodeId ino = mds::kNoInode;
    std::uint64_t created = 0;      ///< creates this flow has issued
    /// Name indices whose create completed: the only names a read may
    /// target, so a read never overtakes the create of its name.
    std::vector<std::uint64_t> completed;
  };

  void bootstrap_dirs();
  void tick();
  std::uint64_t sample_arrivals();
  cluster::Request make_request(std::uint32_t slot_idx);
  mds::MdsRank guess_for(const mds::DirFragId& frag);
  void arm_timeout(std::uint32_t slot_idx);
  void resolve(std::uint32_t slot_idx, bool ok);
  std::uint64_t req_id(std::uint32_t slot_idx) const {
    return (slots_[slot_idx].gen << 20) | slot_idx;
  }

  int id_;
  cluster::MdsCluster& cluster_;
  PopulationConfig cfg_;
  Rng rng_;
  std::uint64_t weight_ = 1;

  std::vector<Flow> flows_;
  std::map<mds::DirFragId, FragBelief> beliefs_;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t outstanding_ = 0;
  std::uint64_t backlog_ = 0;  ///< arrivals deferred by slot exhaustion

  bool started_ = false;
  bool window_open_ = false;
  bool done_ = false;
  Time started_at_ = 0;
  Time window_end_ = 0;
  Time finished_at_ = 0;

  std::uint64_t arrivals_ = 0;
  std::uint64_t sim_completed_ = 0;
  std::uint64_t sim_failed_ = 0;
  std::uint64_t forwards_seen_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t stale_replies_ = 0;
  mantle::ReservoirSample latencies_;

  // Cached registry handles (shared names across populations).
  obs::Counter& m_arrivals_;
  obs::Counter& m_completed_;
  obs::Counter& m_modeled_;
  obs::Counter& m_failed_;
  obs::Counter& m_forwards_;
  obs::Counter& m_retries_;
  obs::Counter& m_stale_;
  obs::Gauge& m_outstanding_;
  obs::Histogram& m_latency_;
};

}  // namespace mantle::sim

#include "sim/population.hpp"

#include <algorithm>
#include <cmath>

#include "obs/profile.hpp"

namespace mantle::sim {

using cluster::OpType;
using cluster::Reply;
using cluster::Request;
using mantle::mds::DirFragId;
using mantle::mds::kNoInode;
using mantle::mds::MdsRank;

namespace {
constexpr std::size_t kSlotBits = 20;
constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
}  // namespace

ClientPopulation::ClientPopulation(int id, cluster::MdsCluster& cluster,
                                   PopulationConfig cfg, Rng rng)
    : id_(id), cluster_(cluster), cfg_(std::move(cfg)), rng_(rng),
      // As with Client, the reservoir's eviction stream is independent of
      // rng_ so sampling never perturbs the arrival event sequence.
      latencies_(mantle::ReservoirSample::kDefaultCapacity,
                 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id) + 1)),
      m_arrivals_(cluster.metrics().counter(
          "pop_arrivals_total", "simulated population request arrivals")),
      m_completed_(cluster.metrics().counter(
          "pop_ops_completed_total", "simulated population ops completed")),
      m_modeled_(cluster.metrics().counter(
          "pop_modeled_ops_total", "weight-scaled modeled ops completed")),
      m_failed_(cluster.metrics().counter("pop_ops_failed_total",
                                          "simulated population ops failed")),
      m_forwards_(cluster.metrics().counter(
          "pop_forwards_total", "forward hops seen by population requests")),
      m_retries_(cluster.metrics().counter(
          "pop_retries_total", "population requests resubmitted on timeout")),
      m_stale_(cluster.metrics().counter(
          "pop_stale_replies_total",
          "late replies to superseded population requests")),
      m_outstanding_(cluster.metrics().gauge(
          "pop_outstanding", "simulated population requests in flight")),
      m_latency_(cluster.metrics().histogram(
          "pop_request_latency_ms", obs::buckets::latency_ms(),
          "sampled population request latency")) {
  const double modeled_rate = static_cast<double>(cfg_.modeled_clients) *
                              cfg_.ops_per_client;
  const double per_sim = cfg_.sim_rate > 0 ? modeled_rate / cfg_.sim_rate : 1;
  weight_ = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(per_sim)), 1);

  const std::size_t nslots =
      std::min<std::size_t>(std::max<std::size_t>(cfg_.max_outstanding, 1),
                            kSlotMask);
  slots_.resize(nslots);
  free_slots_.reserve(nslots);
  // Handed out from the back, so slot 0 goes first.
  for (std::size_t i = nslots; i > 0; --i)
    free_slots_.push_back(static_cast<std::uint32_t>(i - 1));

  if (cfg_.dirs.empty()) cfg_.dirs = {"/pop" + std::to_string(id_)};
  flows_.resize(cfg_.dirs.size());
  for (std::size_t i = 0; i < cfg_.dirs.size(); ++i)
    flows_[i].path = cfg_.dirs[i];
}

void ClientPopulation::bootstrap_dirs() {
  // Admin setup, not workload: the flow directories are created directly
  // in the namespace (no requests, no heat), like a pre-existing tree.
  auto& ns = cluster_.ns();
  const Time now = cluster_.engine().now();
  for (Flow& f : flows_) {
    mds::InodeId cur = ns.root();
    std::size_t pos = 0;
    const std::string_view path = f.path;
    while (pos < path.size() && cur != kNoInode) {
      while (pos < path.size() && path[pos] == '/') ++pos;
      std::size_t end = pos;
      while (end < path.size() && path[end] != '/') ++end;
      if (end == pos) break;
      const auto res = ns.resolve(path.substr(0, end));
      cur = res.found && res.is_dir
                ? res.ino
                : ns.mkdir(cur, std::string(path.substr(pos, end - pos)), now);
      pos = end;
    }
    f.ino = cur;
  }
}

void ClientPopulation::start() {
  if (started_) return;
  started_ = true;
  started_at_ = cluster_.engine().now();
  window_end_ = started_at_ + cfg_.duration;
  window_open_ = true;
  bootstrap_dirs();
  tick();
}

std::uint64_t ClientPopulation::sample_arrivals() {
  const Time left = window_end_ - cluster_.engine().now();
  const double lambda = cfg_.sim_rate * to_seconds(std::min(cfg_.tick, left));
  if (lambda <= 0) return 0;
  if (lambda < 32.0) {
    // Knuth's product method for small means.
    const double limit = std::exp(-lambda);
    double p = 1.0;
    std::uint64_t k = 0;
    do {
      ++k;
      p *= rng_.next_double();
    } while (p > limit);
    return k - 1;
  }
  // Gaussian approximation for large means.
  const double n = rng_.gaussian(lambda, std::sqrt(lambda));
  return n <= 0 ? 0 : static_cast<std::uint64_t>(n + 0.5);
}

MdsRank ClientPopulation::guess_for(const DirFragId& frag) {
  auto it = beliefs_.find(frag);
  if (it == beliefs_.end()) {
    // Unknown fragment (e.g. freshly split): inherit the whole-directory
    // belief when there is one, else assume mds0 like a cold client.
    const auto dir_it = beliefs_.find({frag.ino, {}});
    if (dir_it != beliefs_.end()) it = dir_it;
  }
  if (it == beliefs_.end()) return 0;
  const FragBelief& b = it->second;
  // A modeled client that refreshed recently guesses the current belief;
  // a straggler still uses the previous authority. hit_ema is the
  // learned fraction of refreshed clients.
  return rng_.next_double() < b.hit_ema ? b.auth : b.prev_auth;
}

Request ClientPopulation::make_request(std::uint32_t slot_idx) {
  Slot& s = slots_[slot_idx];
  // Pick a flow uniformly.
  const std::size_t di = std::min(
      static_cast<std::size_t>(rng_.next_double() *
                               static_cast<double>(flows_.size())),
      flows_.size() - 1);
  Flow& f = flows_[di];

  // Op mix: creates grow the flow's dentry universe; reads sample the
  // names whose create completed. A flow with none creates regardless,
  // so reads have targets.
  const double r = rng_.next_double();
  if (f.completed.empty() || r < cfg_.create_frac) {
    s.op = OpType::Create;
    s.index = f.created++;
  } else {
    s.op = rng_.next_double() < 0.5 ? OpType::Getattr : OpType::Lookup;
    s.index = f.completed[rng_.uniform(0, f.completed.size() - 1)];
  }
  s.name = "p" + std::to_string(id_) + "_" + std::to_string(di) + "_" +
           std::to_string(s.index);
  s.dir = di;

  Request req;
  req.id = req_id(slot_idx);
  req.client = id_;
  req.op = s.op;
  req.dir = f.ino;
  req.name = s.name;
  req.span = cluster_.trace().next_span();
  req.issued_at = cluster_.engine().now();
  return req;
}

void ClientPopulation::tick() {
  obs::ScopedPhase prof(obs::ProfilePhase::PopulationSample);
  const Time now = cluster_.engine().now();
  if (now >= window_end_) {
    // Arrival window closed: stop generating; done() flips when the last
    // in-flight request resolves (or immediately if already drained).
    window_open_ = false;
    if (outstanding_ == 0 && !done_) {
      done_ = true;
      finished_at_ = now;
    }
    return;
  }

  std::uint64_t want = sample_arrivals() + backlog_;
  const std::uint64_t room = free_slots_.size();
  backlog_ = want > room ? want - room : 0;
  if (want > room) want = room;

  if (want > 0) {
    // One network event per (guess rank, batch), not per request: group
    // the tick's arrivals while preserving issue order within a rank.
    std::map<MdsRank, std::vector<Request>> batches;
    for (std::uint64_t i = 0; i < want; ++i) {
      const std::uint32_t slot_idx = free_slots_.back();
      free_slots_.pop_back();
      Slot& s = slots_[slot_idx];
      ++s.gen;
      s.inflight = true;
      s.issued_at = now;
      s.attempt = 1;
      s.backoff = cfg_.retry.timeout;

      Request req = make_request(slot_idx);
      const DirFragId frag = cluster_.ns().frag_of(req.dir, req.name);
      s.last_guess = guess_for(frag);
      batches[s.last_guess].push_back(std::move(req));

      ++outstanding_;
      ++arrivals_;
      if (cfg_.retry.timeout > 0) arm_timeout(slot_idx);
    }
    m_arrivals_.inc(want);
    m_outstanding_.set(static_cast<double>(outstanding_));
    for (auto& [rank, batch] : batches)
      cluster_.client_submit_batch(rank, std::move(batch));
  }

  cluster_.engine().schedule_after(cfg_.tick, [this]() { tick(); });
}

void ClientPopulation::arm_timeout(std::uint32_t slot_idx) {
  Slot& armed = slots_[slot_idx];
  armed.timer = cluster_.engine().schedule_after(armed.backoff,
                                                 [this, slot_idx]() {
    Slot& s = slots_[slot_idx];
    // Resubmit under a fresh id toward a rank believed up; the gen bump
    // makes any late reply to the old id identify itself as stale.
    ++retries_;
    m_retries_.inc();
    ++s.attempt;
    ++s.gen;
    if (!cluster_.is_up(s.last_guess))
      s.last_guess = cluster_.pick_up_rank(s.last_guess);
    s.backoff = std::min(s.backoff * 2, cfg_.retry.max_backoff);

    Request req;
    req.id = req_id(slot_idx);
    req.client = id_;
    req.op = s.op;
    req.dir = flows_[s.dir].ino;
    req.name = s.name;
    req.span = cluster_.trace().next_span();
    req.issued_at = s.issued_at;  // latency spans the logical op
    cluster_.client_submit(std::move(req), s.last_guess);
    arm_timeout(slot_idx);
  });
}

void ClientPopulation::resolve(std::uint32_t slot_idx, bool ok) {
  Slot& s = slots_[slot_idx];
  const Time now = cluster_.engine().now();
  const double ms = to_seconds(now - s.issued_at) * 1e3;
  latencies_.add(ms);
  m_latency_.observe(ms);
  if (ok) {
    ++sim_completed_;
    m_completed_.inc();
    m_modeled_.inc(weight_);
    if (s.op == OpType::Create) flows_[s.dir].completed.push_back(s.index);
  } else {
    ++sim_failed_;
    m_failed_.inc();
  }
  ++s.gen;  // invalidates late replies
  cluster_.engine().cancel(s.timer);
  s.inflight = false;
  s.name.clear();
  free_slots_.push_back(slot_idx);
  --outstanding_;
  m_outstanding_.set(static_cast<double>(outstanding_));
  if (!window_open_ && outstanding_ == 0 && !done_) {
    done_ = true;
    finished_at_ = now;
  }
}

void ClientPopulation::on_reply(const Reply& rep) {
  const auto slot_idx = static_cast<std::uint32_t>(rep.req_id & kSlotMask);
  const std::uint64_t gen = rep.req_id >> kSlotBits;
  if (slot_idx >= slots_.size() || !slots_[slot_idx].inflight ||
      slots_[slot_idx].gen != gen) {
    ++stale_replies_;
    m_stale_.inc();
    return;
  }
  Slot& s = slots_[slot_idx];
  forwards_seen_ += static_cast<std::uint64_t>(rep.hops);
  if (rep.hops > 0) m_forwards_.inc(static_cast<std::uint64_t>(rep.hops));

  // Learn: shift the belief window on an authority change, and track the
  // forward-free fraction as the modeled cache hit rate, an EMA with step
  // kHitAlpha.
  constexpr double kHitAlpha = 0.05;
  if (rep.dir != kNoInode) {
    FragBelief& b = beliefs_[{rep.dir, rep.frag}];
    if (b.auth != rep.served_by) {
      b.prev_auth = b.auth;
      b.auth = rep.served_by;
    }
    const double hit = rep.hops == 0 ? 1.0 : 0.0;
    b.hit_ema += kHitAlpha * (hit - b.hit_ema);
  }

  // At-least-once, as in Client: a retried mutation refused as a
  // duplicate (e.g. create -> already exists) still completed.
  const bool is_mut = s.op == OpType::Create || s.op == OpType::Mkdir ||
                      s.op == OpType::Unlink || s.op == OpType::Rename;
  resolve(slot_idx, rep.ok || (s.attempt > 1 && is_mut));
}

double ClientPopulation::hit_rate_estimate() const {
  if (beliefs_.empty()) return 0.0;
  double sum = 0;
  for (const auto& [frag, b] : beliefs_) sum += b.hit_ema;
  return sum / static_cast<double>(beliefs_.size());
}

}  // namespace mantle::sim

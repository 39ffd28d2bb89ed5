#include "cluster/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "cluster/candidate_cache.hpp"
#include "common/log.hpp"
#include "obs/profile.hpp"

namespace mantle::cluster {

using mantle::mds::DirFrag;
using mantle::mds::frag_t;
using mantle::mds::hash_dentry_name;
using mantle::mds::kNoInode;
using mantle::mds::kNoRank;

const char* recovery_kind_name(RecoveryEvent::Kind kind) {
  switch (kind) {
    case RecoveryEvent::Kind::Crash: return "crash";
    case RecoveryEvent::Kind::MigrationAborted: return "migration-aborted";
    case RecoveryEvent::Kind::TakeoverStart: return "takeover-start";
    case RecoveryEvent::Kind::TakeoverComplete: return "takeover-complete";
    case RecoveryEvent::Kind::RestartStart: return "restart-start";
    case RecoveryEvent::Kind::ReplayComplete: return "replay-complete";
  }
  return "?";
}

const char* op_name(OpType op) {
  switch (op) {
    case OpType::Create: return "create";
    case OpType::Mkdir: return "mkdir";
    case OpType::Getattr: return "getattr";
    case OpType::Lookup: return "lookup";
    case OpType::Readdir: return "readdir";
    case OpType::Unlink: return "unlink";
    case OpType::Rename: return "rename";
  }
  return "?";
}

namespace {

/// The hard-coded CephFS metaload used whenever no policy is installed.
double default_metaload(const PopSnapshot& p) {
  return p.ird + 2.0 * p.iwr + p.readdir + 2.0 * p.fetch + 4.0 * p.store;
}

MetaOp op_to_meta(OpType op) {
  switch (op) {
    case OpType::Create:
    case OpType::Mkdir:
    case OpType::Unlink:
    case OpType::Rename:
      return MetaOp::IWR;
    case OpType::Getattr:
    case OpType::Lookup:
      return MetaOp::IRD;
    case OpType::Readdir:
      return MetaOp::READDIR;
  }
  return MetaOp::IRD;
}

/// The one walk over an authority region: depth first from `stack`,
/// skipping frags owned by anyone but `owner` (foreign bounds; kNoRank
/// bounds nothing), descending through each visited frag's directory
/// index and never its file dentries. The index iterates in dentry-name
/// order and a child directory's frags go on the stack in frag order, so
/// a region's frags are visited in the order a scan of every dentry
/// visits them, and a sum over the walk equals that scan's bit for bit.
template <typename NS, typename Visit>
void walk_region(NS& ns, std::vector<DirFragId> stack, MdsRank owner,
                 Visit&& visit) {
  while (!stack.empty()) {
    const DirFragId cur = stack.back();
    stack.pop_back();
    auto* f = ns.frag(cur);
    if (f == nullptr) continue;
    if (owner != kNoRank && f->auth != owner) continue;
    visit(cur, *f);
    for (const auto& [name, ino] : f->subdirs) {
      const mantle::mds::Dir* child = ns.dir(ino);
      if (child == nullptr) continue;
      for (const auto& [cf, cdf] : child->frags) stack.push_back({ino, cf});
    }
  }
}

}  // namespace

// ===========================================================================
// ClusterMetrics
// ===========================================================================

ClusterMetrics::ClusterMetrics(obs::MetricsRegistry& reg)
    : requests_completed(reg.counter("mds_requests_completed_total",
                                     "client requests answered")),
      requests_dropped(reg.counter("mds_requests_dropped_total",
                                   "requests lost to dead ranks")),
      forwards(reg.counter("mds_forwards_total",
                           "misdirected requests bounced to the authority")),
      hb_sent(reg.counter("mds_heartbeats_sent_total",
                          "heartbeat deliveries scheduled")),
      hb_received(reg.counter("mds_heartbeats_received_total",
                              "heartbeats landed at a live peer")),
      hb_dropped(reg.counter("mds_heartbeats_dropped_total",
                             "heartbeats lost to injected network faults")),
      hb_duplicated(reg.counter("mds_heartbeats_duplicated_total",
                                "heartbeats duplicated by network faults")),
      hb_stale_rejected(reg.counter(
          "mds_heartbeats_stale_rejected_total",
          "heartbeats refused by the stale-epoch/ordering guard")),
      when_true(reg.counter("bal_when_true_total",
                            "balancer ticks that decided to migrate")),
      when_false(reg.counter("bal_when_false_total",
                             "balancer ticks that decided to hold")),
      exports_started(reg.counter("migrations_started_total",
                                  "2PC subtree exports begun")),
      exports_committed(reg.counter("migrations_committed_total",
                                    "2PC subtree exports committed")),
      exports_aborted(reg.counter("migrations_aborted_total",
                                  "2PC exports aborted by a crash")),
      exports_retried(reg.counter("migrations_retried_total",
                                  "aborted exports re-attempted after "
                                  "exponential backoff")),
      exports_timed_out(reg.counter("migrations_timed_out_total",
                                    "stuck 2PC exports aborted by the "
                                    "watchdog")),
      splits(reg.counter("dirfrag_splits_total",
                         "directory fragments split on size")),
      merges(reg.counter("dirfrag_merges_total",
                         "fragmented directories merged back")),
      dead_letter_parked(reg.counter("dead_letter_parked_total",
                                     "requests parked on down subtrees")),
      dead_letter_flushed(reg.counter("dead_letter_flushed_total",
                                      "parked requests re-injected")),
      crashes(reg.counter("mds_crashes_total", "MDS processes killed")),
      restarts(reg.counter("mds_restarts_total", "MDS restarts begun")),
      takeovers(reg.counter("mds_takeovers_total",
                            "dead ranks adopted by a survivor")),
      sessions_flushed(reg.counter("client_sessions_flushed_total",
                                   "client sessions flushed on moves")),
      provenance_records(reg.counter("mantle_provenance_records_total",
                                     "balancer decisions captured by the "
                                     "provenance recorder")),
      provenance_dropped(reg.counter("mantle_provenance_dropped_total",
                                     "decisions dropped at provenance "
                                     "capacity")),
      request_latency_ms(reg.histogram("request_latency_ms",
                                       obs::buckets::latency_ms(),
                                       "client-visible request latency")),
      migration_entries(reg.histogram("migration_entries",
                                      obs::buckets::entries(),
                                      "dentries moved per committed export")),
      migration_duration_ms(reg.histogram("migration_duration_ms",
                                          obs::buckets::latency_ms(),
                                          "2PC start-to-commit wall time")),
      replay_entries(reg.histogram("journal_replay_entries",
                                   obs::buckets::entries(),
                                   "journal entries replayed per recovery")) {}

// ===========================================================================
// MdsNode
// ===========================================================================

MdsNode::MdsNode(MdsCluster& cluster, MdsRank rank, Rng rng)
    : cluster_(cluster), rank_(rank), rng_(rng) {
  hb_.resize(static_cast<std::size_t>(cluster_.config().num_mds));
  for (std::size_t i = 0; i < hb_.size(); ++i)
    hb_[i].rank = static_cast<MdsRank>(i);
  fresh_streak_.assign(hb_.size(), 0);
}

void MdsNode::on_arrival(Request r) {
  queue_.push_back(std::move(r));
  maybe_start();
}

void MdsNode::on_heartbeat(const HeartbeatPayload& hb, Time arrival) {
  if (hb.rank < 0 || static_cast<std::size_t>(hb.rank) >= hb_.size()) return;
  if (cluster_.config().hb_stale_guard) {
    // A payload from a dead incarnation (duplicated/delayed across the
    // sender's crash) or one older than what is already stored must not
    // overwrite fresher state: after a takeover it would resurrect the
    // dead rank's pre-crash load in every survivor's view.
    const HeartbeatPayload& cur = hb_[static_cast<std::size_t>(hb.rank)];
    if (hb.epoch < cluster_.crash_epoch(hb.rank) || hb.epoch < cur.epoch ||
        (hb.epoch == cur.epoch && hb.sent_at < cur.sent_at)) {
      ++cluster_.hb_stale_rejected_;
      cluster_.om_.hb_stale_rejected.inc();
      ++hb_summary_.stale;
      return;
    }
  }
  hb_[static_cast<std::size_t>(hb.rank)] = hb;
  cluster_.om_.hb_received.inc();
  const Time age = arrival > hb.sent_at ? arrival - hb.sent_at : 0;
  if (hb_summary_.applied == 0 || age < hb_summary_.min_age)
    hb_summary_.min_age = age;
  if (hb_summary_.applied == 0 || age > hb_summary_.max_age)
    hb_summary_.max_age = age;
  ++hb_summary_.applied;
}

void MdsNode::settle_inbox() {
  if (inbox_.empty()) return;
  const sim::Engine& engine = cluster_.engine();
  const Time now = engine.now();
  const std::uint64_t point = engine.current_seq();
  const auto landed = std::partition(
      inbox_.begin(), inbox_.end(), [now, point](const InboxEntry& d) {
        return d.arrival < now || (d.arrival == now && d.seq < point);
      });
  std::sort(inbox_.begin(), landed,
            [](const InboxEntry& a, const InboxEntry& b) {
              return a.arrival != b.arrival ? a.arrival < b.arrival
                                            : a.seq < b.seq;
            });
  // Every change of liveness settles first, so this node has been up (or
  // down) since the earliest of these landed: one check covers them all.
  if (cluster_.is_up(rank_))
    for (auto it = inbox_.begin(); it != landed; ++it)
      on_heartbeat(it->hb, it->arrival);
  inbox_.erase(inbox_.begin(), landed);
}

void MdsNode::maybe_start() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  process_front();
}

Time MdsNode::service_time(OpType op) {
  const ClusterConfig& cfg = cluster_.config();
  Time base = cfg.svc_getattr;
  switch (op) {
    case OpType::Create: base = cfg.svc_create; break;
    case OpType::Mkdir: base = cfg.svc_mkdir; break;
    case OpType::Getattr: base = cfg.svc_getattr; break;
    case OpType::Lookup: base = cfg.svc_lookup; break;
    case OpType::Readdir: base = cfg.svc_readdir; break;
    case OpType::Unlink: base = cfg.svc_unlink; break;
    case OpType::Rename: base = cfg.svc_mkdir; break;  // link+unlink work
  }
  if (cfg.svc_jitter > 0.0) {
    const double f = 1.0 + cfg.svc_jitter * (2.0 * rng_.next_double() - 1.0);
    base = static_cast<Time>(static_cast<double>(base) * f);
  }
  return std::max<Time>(base, 1);
}

void MdsNode::process_front() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  Request r = std::move(queue_.front());
  queue_.pop_front();

  auto& ns = cluster_.ns();

  // Continuations scheduled below die with the process on a crash: they
  // capture the current epoch and no-op if it has moved on.
  const std::uint64_t ep = epoch_;

  const mantle::mds::Dir* d = ns.dir(r.dir);
  if (d == nullptr) {
    // Unknown directory: answer with an error after a lookup-ish cost.
    const Time svc = service_time(OpType::Lookup);
    busy_in_window_ += svc;
    cluster_.engine().schedule_after(svc, [this, ep, r]() {
      if (ep != epoch_) return;
      Reply rep;
      rep.req_id = r.id;
      rep.client = r.client;
      rep.ok = false;
      rep.served_by = rank_;
      rep.dir = r.dir;
      rep.hops = r.hops;
      rep.span = r.span;
      rep.issued_at = r.issued_at;
      rep.finished_at = cluster_.engine().now();
      cluster_.deliver_reply(rep);
      process_front();
    });
    return;
  }

  const DirFragId target =
      r.name.empty() ? DirFragId{r.dir, d->frags.begin()->first}
                     : ns.frag_of(r.dir, r.name);

  if (cluster_.is_frozen(target)) {
    // The covering subtree is mid-migration: park the request with the
    // migration; it is re-injected at the importer on completion.
    cluster_.defer_to_migration(target, std::move(r));
    cluster_.engine().schedule_after(0, [this, ep]() {
      if (ep == epoch_) process_front();
    });
    return;
  }

  const MdsRank auth = cluster_.auth_of(target);
  if (auth != rank_ && auth != kNoRank) {
    // Misdirected: bounce to the authority (the "forward" of Figure 3b).
    ++stats_.forwards_out;
    cluster_.om_.forwards.inc();
    ++r.hops;
    forward_pop_.hit(cluster_.engine().now(), cluster_.ns().decay_rate());
    const Time fwd = cluster_.config().svc_forward;
    busy_in_window_ += fwd;
    cluster_.engine().schedule_after(
        fwd, [this, ep, r = std::move(r), target]() mutable {
          if (ep != epoch_) return;
          // Re-resolve at send time; if the authority is down the request
          // parks on the dead-letter queue instead of vanishing into a dead
          // host, and is re-injected when the subtree recovers.
          cluster_.route_or_park(target, std::move(r));
          process_front();
        });
    return;
  }

  ++stats_.hits;
  Time svc = service_time(r.op);
  // Coherency taxes of lost locality (§2.1):
  // 1. Replicated-prefix traversal: the target's parent directory is
  //    owned elsewhere, so the path is resolved against replicas that
  //    must be kept coherent with their authority.
  if (target.ino != ns.root()) {
    const mantle::mds::Inode* node = ns.inode(target.ino);
    if (node != nullptr && node->parent != mantle::mds::kNoInode) {
      const DirFragId parent_frag = ns.frag_of(node->parent, node->name);
      if (cluster_.auth_of(parent_frag) != rank_) {
        svc += cluster_.config().svc_remote_prefix;
        ++stats_.remote_prefix_ops;
      }
    }
  }
  // 1b. Cross-MDS ("slave") rename: the destination fragment lives on a
  //     different MDS, which must participate in a two-phase update.
  if (r.op == OpType::Rename && r.dst_dir != kNoInode) {
    const mantle::mds::Dir* dd = ns.dir(r.dst_dir);
    if (dd != nullptr) {
      const DirFragId dst = ns.frag_of(r.dst_dir, r.dst_name);
      if (cluster_.auth_of(dst) != rank_)
        svc += 2 * cluster_.config().net_latency +
               cluster_.config().svc_remote_prefix;
    }
  }
  // 2. Scatter-gather on mutations: a directory whose fragments span k
  //    MDS nodes needs its fragstats/rstats kept coherent across all of
  //    them; every sharer exchanges scatter-gather rounds with every
  //    other and the lock hand-offs compound, so the per-op tax is
  //    quadratic in the number of extra sharers. The coefficient is
  //    calibrated (see DESIGN.md §5) so the single-shared-directory
  //    experiments reproduce the paper's crossover: spilling to 2 MDS
  //    wins, spreading over 4 loses.
  if (r.op == OpType::Create || r.op == OpType::Mkdir ||
      r.op == OpType::Unlink || r.op == OpType::Rename) {
    int sharer_mask = 0;
    for (const auto& [fg, df] : d->frags)
      if (df.auth >= 0 && df.auth < 31) sharer_mask |= 1 << df.auth;
    const int sharers = std::popcount(static_cast<unsigned>(sharer_mask));
    if (sharers > 1)
      svc += cluster_.config().svc_scatter_gather *
             static_cast<Time>((sharers - 1) * (sharers - 1));
  }
  busy_in_window_ += svc;
  cluster_.engine().schedule_after(
      svc, [this, ep, r = std::move(r), svc]() mutable {
        if (ep != epoch_) return;
        complete(std::move(r), svc);
        process_front();
      });
}

std::size_t MdsNode::reset_for_crash(Time now) {
  // The queue and the op in service die with the process; the epoch bump
  // cancels every scheduled continuation.
  std::size_t lost = queue_.size() + (busy_ ? 1 : 0);
  queue_.clear();
  busy_ = false;
  ++epoch_;
  window_start_ = now;
  busy_in_window_ = 0;
  done_in_window_ = 0;
  return lost;
}

void MdsNode::complete(Request r, Time /*svc*/) {
  auto& ns = cluster_.ns();
  const Time now = cluster_.engine().now();

  Reply rep;
  rep.req_id = r.id;
  rep.client = r.client;
  rep.served_by = rank_;
  rep.dir = r.dir;
  rep.hops = r.hops;
  rep.span = r.span;
  rep.issued_at = r.issued_at;
  rep.finished_at = now;

  const mantle::mds::Dir* d = ns.dir(r.dir);
  if (d != nullptr) {
    // Tell the client which fragment this landed in, so it can keep a
    // frag-granular map of the namespace (CephFS clients learn the
    // dirfragtree from replies).
    rep.frag = r.name.empty() ? d->frags.begin()->first
                              : ns.frag_of(r.dir, r.name).frag;
  }
  if (d == nullptr) {
    rep.ok = false;
  } else {
    switch (r.op) {
      case OpType::Create: {
        const auto ino = ns.create(r.dir, r.name, now);
        rep.ok = ino != kNoInode;
        rep.result_ino = ino;
        break;
      }
      case OpType::Mkdir: {
        const auto ino = ns.mkdir(r.dir, r.name, now);
        rep.ok = ino != kNoInode;
        rep.result_ino = ino;
        break;
      }
      case OpType::Getattr:
      case OpType::Lookup: {
        const auto ino = ns.lookup(r.dir, r.name);
        rep.ok = ino != kNoInode;
        rep.result_ino = ino;
        break;
      }
      case OpType::Readdir:
        rep.ok = true;
        break;
      case OpType::Unlink:
        rep.ok = ns.remove(r.dir, r.name);
        break;
      case OpType::Rename: {
        const InodeId moving = ns.lookup(r.dir, r.name);
        const bool moving_dir =
            moving != kNoInode && ns.inode(moving) != nullptr &&
            ns.inode(moving)->is_dir;
        const DirFragId dst = ns.frag_of(r.dst_dir, r.dst_name);
        rep.ok = ns.rename(r.dir, r.name, r.dst_dir, r.dst_name);
        rep.result_ino = moving;
        if (rep.ok && moving_dir) {
          const MdsRank dst_auth = cluster_.auth_of(dst);
          if (dst_auth != rank_ && dst_auth != kNoRank) {
            // A directory renamed across an auth boundary follows its new
            // parent: the whole moved subtree changes hands, and "client
            // sessions ... are flushed when slave MDS nodes rename or
            // migrate directories."
            cluster_.reparent_subtree(moving, rank_, dst_auth);
            cluster_.flush_client_sessions(rank_, dst_auth);
          }
        }
        break;
      }
    }
  }

  // Load accounting: the op heats the dirfrag it touched (and, nested, all
  // of its ancestors).
  if (d != nullptr) {
    if (r.op == OpType::Readdir) {
      // A listing touches every fragment of the directory.
      std::vector<frag_t> frags;
      for (const auto& [f, df] : d->frags) frags.push_back(f);
      for (const frag_t f : frags)
        ns.record_op({r.dir, f}, MetaOp::READDIR, now);
    } else {
      const DirFragId target = ns.frag_of(r.dir, r.name);
      ns.record_op(target, op_to_meta(r.op), now);
      if (r.op == OpType::Create || r.op == OpType::Mkdir)
        cluster_.maybe_split(target);
      else if (r.op == OpType::Unlink)
        cluster_.maybe_merge(r.dir);
    }
  }

  ++stats_.completed;
  ++stats_.ops_by_type[static_cast<std::size_t>(r.op)];
  ++done_in_window_;
  cluster_.om_.requests_completed.inc();
  stats_.throughput.record(now);
  cluster_.note_session(rank_, r.client);
  cluster_.deliver_reply(rep);
}

HeartbeatPayload MdsNode::measure() {
  const Time now = cluster_.engine().now();
  const ClusterConfig& cfg = cluster_.config();
  HeartbeatPayload hb;
  hb.rank = rank_;
  hb.sent_at = now;
  hb.epoch = cluster_.crash_epoch(rank_);

  const Time window = std::max<Time>(now - window_start_, 1);
  const double busy_frac =
      static_cast<double>(busy_in_window_) / static_cast<double>(window);
  // Instantaneous CPU measurement: true utilization plus sampling noise —
  // the paper's "instantaneous measurements make the balancer sensitive to
  // common system perturbations".
  double cpu = busy_frac * 100.0;
  if (cfg.cpu_noise_pct > 0.0) cpu += rng_.gaussian(0.0, cfg.cpu_noise_pct);
  hb.cpu_pct = std::clamp(cpu, 0.0, 100.0);
  hb.req_rate = static_cast<double>(done_in_window_) / to_seconds(window);
  hb.queue_len = static_cast<double>(queue_.size());

  const auto own_entries = cluster_.auth_entry_count(rank_);
  hb.mem_pct = std::clamp(
      100.0 * static_cast<double>(own_entries) / cfg.mem_capacity_entries,
      0.0, 100.0);

  // Metadata loads via the installed policy (or the CephFS default).
  auto apply_metaload = [&](const PopSnapshot& p) {
    return balancer_ ? balancer_->metaload(p) : default_metaload(p);
  };
  double auth_load = 0.0;
  for (const DirFragId& root : cluster_.roots_of(rank_))
    auth_load += apply_metaload(cluster_.subtree_pop(root, rank_, now));
  hb.auth_metaload = auth_load;
  hb.all_metaload = auth_load + forward_pop_.get(now, cluster_.ns().decay_rate());
  return hb;
}

void MdsNode::tick() {
  obs::ScopedPhase prof(obs::ProfilePhase::ClusterTick);
  const Time now = cluster_.engine().now();
  const ClusterConfig& cfg = cluster_.config();

  // Snapshot the policy's cumulative evaluation cost before any hook
  // runs (measure() already calls metaload), so the provenance record
  // carries the deltas this tick cost.
  const Balancer::EvalStats ev0 =
      balancer_ != nullptr ? balancer_->eval_stats() : Balancer::EvalStats{};

  // What arrived since the last tick, as one summary event: the table
  // itself is what the balancer reads below.
  settle_inbox();
  cluster_.trace_.event(
      now, obs::EventKind::HeartbeatReceived, rank_, -1, {},
      {{"applied", static_cast<double>(hb_summary_.applied)},
       {"stale", static_cast<double>(hb_summary_.stale)},
       {"min_age_us", static_cast<double>(hb_summary_.min_age)},
       {"max_age_us", static_cast<double>(hb_summary_.max_age)}});
  hb_summary_ = {};

  HeartbeatPayload me = measure();
  hb_[static_cast<std::size_t>(rank_)] = me;

  // Heartbeats take time to pack, travel and unpack; peers see the past,
  // and how far in the past varies per delivery. The network fault layer
  // may drop a delivery, duplicate it, or stretch its delay further.
  NetworkFaults* nf = cluster_.network_faults();
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  for (int p = 0; p < cluster_.num_mds(); ++p) {
    if (p == rank_) continue;
    if (nf != nullptr && nf->drop_heartbeat(rank_, p)) {
      ++dropped;
      continue;
    }
    int copies = 1;
    if (nf != nullptr && nf->duplicate_heartbeat(rank_, p)) {
      copies = 2;
      ++duplicated;
    }
    ++sent;
    for (int c = 0; c < copies; ++c) {
      Time delay = cfg.hb_delay;
      if (cfg.hb_jitter_frac > 0.0) {
        const double f =
            1.0 + cfg.hb_jitter_frac * (2.0 * rng_.next_double() - 1.0);
        delay = static_cast<Time>(static_cast<double>(delay) * f);
      }
      if (nf != nullptr) delay += nf->extra_heartbeat_delay(rank_, p);
      cluster_.send_heartbeat(p, delay, me);
    }
  }
  cluster_.om_.hb_sent.inc(sent);
  cluster_.om_.hb_dropped.inc(dropped);
  cluster_.om_.hb_duplicated.inc(duplicated);
  cluster_.trace_.event(now, obs::EventKind::HeartbeatSent, rank_, -1, {},
                        {{"load", me.all_metaload},
                         {"cpu", me.cpu_pct},
                         {"sent", static_cast<double>(sent)},
                         {"dropped", static_cast<double>(dropped)},
                         {"duplicated", static_cast<double>(duplicated)}});

  if (balancer_ != nullptr) {
    ClusterView view;
    view.whoami = rank_;
    view.now = now;
    view.mdss = hb_;
    // Laggy-peer detection: a rank whose heartbeat is older than
    // laggy_factor balance intervals is presumed dead. Its stale load is
    // dropped from the view so policies neither count it toward the
    // cluster total nor pick it as an importer. Readmission applies
    // hysteresis: a peer that went laggy must look fresh for
    // laggy_readmit_ticks consecutive ticks before it is trusted again,
    // so a flapping rank does not oscillate in and out of the view (each
    // oscillation would re-aim exports at it).
    view.alive.assign(hb_.size(), 1);
    if (cfg.laggy_factor > 0.0) {
      const Time window = static_cast<Time>(
          cfg.laggy_factor * static_cast<double>(cfg.bal_interval));
      const int need = std::max(cfg.laggy_readmit_ticks, 1);
      for (std::size_t i = 0; i < hb_.size(); ++i) {
        if (static_cast<MdsRank>(i) == rank_) continue;
        const bool fresh = now - hb_[i].sent_at <= window;
        fresh_streak_[i] = fresh ? fresh_streak_[i] + 1 : 0;
        if (fresh_streak_[i] < need) view.alive[i] = 0;
      }
    }
    view.loads.resize(hb_.size());
    view.total_load = 0.0;
    for (std::size_t i = 0; i < hb_.size(); ++i) {
      view.loads[i] = view.alive[i] ? balancer_->mdsload(hb_[i]) : 0.0;
      view.total_load += view.loads[i];
    }

    // The whole tick's decision chain (when -> where -> howmuch) shares
    // one causal span; migrations it orders are child spans of it.
    const obs::SpanId tick_span = cluster_.trace_.next_span();

    // Provenance: capture the exact hook environment the decision saw.
    obs::DecisionRecord rec;
    rec.at = now;
    rec.rank = rank_;
    rec.span = tick_span;
    rec.policy = balancer_->name();
    rec.min_load = cfg.bal_min_load;
    rec.mdss.reserve(hb_.size());
    for (const HeartbeatPayload& h : hb_)
      rec.mdss.push_back({h.auth_metaload, h.all_metaload, h.cpu_pct,
                          h.mem_pct, h.queue_len, h.req_rate});
    rec.loads = view.loads;
    rec.alive = view.alive;
    rec.total_load = view.total_load;

    const bool migrate =
        view.total_load >= cfg.bal_min_load && balancer_->when(view);
    rec.go = migrate;
    (migrate ? cluster_.om_.when_true : cluster_.om_.when_false).inc();
    const std::size_t me_idx = static_cast<std::size_t>(rank_);
    cluster_.trace_.event(
        now, obs::EventKind::WhenDecision, rank_, -1, {},
        {{"go", migrate ? 1.0 : 0.0},
         {"my_load", me_idx < view.loads.size() ? view.loads[me_idx] : 0.0},
         {"total_load", view.total_load}},
        tick_span);
    if (migrate) {
      std::vector<double> targets = balancer_->where(view);
      targets.resize(hb_.size(), 0.0);
      rec.targets = targets;
      {
        obs::TraceEvent ev;
        ev.at = now;
        ev.kind = obs::EventKind::WhereDecision;
        ev.rank = rank_;
        ev.span = tick_span;
        // Always emit the totals, even when every target was sanitized
        // away, so analyzers can tell "chose to send nothing" (fields
        // present, zero) from a malformed event.
        double surviving = 0.0;
        double load_total = 0.0;
        for (std::size_t t = 0; t < targets.size(); ++t) {
          if (targets[t] > 0.0 && static_cast<MdsRank>(t) != rank_) {
            surviving += 1.0;
            load_total += targets[t];
          }
        }
        ev.fields.emplace_back("targets_total", surviving);
        ev.fields.emplace_back("shipped_total", load_total);
        for (std::size_t t = 0; t < targets.size(); ++t)
          if (targets[t] > 0.0 && static_cast<MdsRank>(t) != rank_)
            ev.fields.emplace_back("to" + std::to_string(t), targets[t]);
        cluster_.trace_.record(std::move(ev));
      }
      // One howmuch() per tick: the strategy list is a per-policy constant,
      // not a per-target one.
      const std::vector<std::string> selectors = balancer_->howmuch();
      rec.selectors = selectors;
      // Every target's pool is drawn from the same walks; only this tick's
      // own exports change what is frozen in between.
      CandidateCache candidates(cluster_, rank_, now);
      for (std::size_t t = 0; t < targets.size(); ++t) {
        if (static_cast<MdsRank>(t) == rank_) continue;
        if (!view.alive[t]) continue;  // never export to a laggy/dead peer
        const double goal = targets[t] * cfg.need_min_factor;
        if (goal <= cfg.bal_min_load) continue;
        const std::vector<ExportCandidate> pool =
            candidates.pool(goal, *balancer_);
        const std::vector<std::size_t> picks =
            best_selection(selectors, pool, goal);
        cluster_.trace_.event(
            now, obs::EventKind::HowmuchDecision, rank_, static_cast<int>(t),
            {},
            {{"goal", goal},
             {"pool", static_cast<double>(pool.size())},
             {"picked", static_cast<double>(picks.size())},
             {"shipped", selection_load(pool, picks)}},
            tick_span);
        obs::ProvenanceShipment ship;
        ship.target = static_cast<int>(t);
        ship.goal = goal;
        ship.pool = pool.size();
        ship.shipped = selection_load(pool, picks);
        for (const std::size_t idx : picks) {
          ship.picks.push_back({pool[idx].frag.str(), pool[idx].load,
                                static_cast<std::uint64_t>(pool[idx].entries)});
          if (cluster_.export_subtree(pool[idx].frag, static_cast<MdsRank>(t),
                                      tick_span))
            candidates.exported(pool[idx].frag);
        }
        rec.ships.push_back(std::move(ship));
      }
    }

    const Balancer::EvalStats ev1 = balancer_->eval_stats();
    rec.lua_steps = ev1.lua_steps - ev0.lua_steps;
    rec.hook_errors = ev1.hook_errors - ev0.hook_errors;
    rec.cache_hits = ev1.cache_hits - ev0.cache_hits;
    rec.cache_misses = ev1.cache_misses - ev0.cache_misses;
    rec.cache_recompiles = ev1.cache_recompiles - ev0.cache_recompiles;
    cluster_.record_provenance(std::move(rec));
  }

  // Reset the measurement window.
  window_start_ = now;
  busy_in_window_ = 0;
  done_in_window_ = 0;
}

// ===========================================================================
// MdsCluster
// ===========================================================================

MdsCluster::MdsCluster(sim::Engine& engine, ClusterConfig cfg)
    : engine_(engine), cfg_(cfg), rng_(cfg.seed), trace_(cfg.trace_capacity),
      provenance_(cfg.provenance_capacity), om_(metrics_),
      // Independent backoff-jitter stream: derived from the seed but not
      // forked from rng_, so arming export retries never shifts the event
      // sequences of fault-free runs.
      retry_rng_(cfg.seed ^ 0x9e3779b97f4a7c15ULL) {
  sessions_.resize(static_cast<std::size_t>(cfg_.num_mds));
  life_.resize(static_cast<std::size_t>(cfg_.num_mds), NodeLife::Up);
  crash_epoch_.resize(static_cast<std::size_t>(cfg_.num_mds), 0);
  recovery_span_.resize(static_cast<std::size_t>(cfg_.num_mds), obs::kNoSpan);
  for (int r = 0; r < cfg_.num_mds; ++r) {
    nodes_.push_back(std::make_unique<MdsNode>(*this, r, rng_.fork()));
    journals_.push_back(std::make_unique<store::Journal>(
        store_, "mds" + std::to_string(r) + ".journal"));
  }
  // Rank 0 starts as the authority for the whole namespace.
  const DirFragId root{ns_.root(), frag_t()};
  ns_.frag(root)->auth = 0;
  subtree_roots_[root] = 0;
}

void MdsCluster::record_provenance(obs::DecisionRecord rec) {
  // Digest the *full* input table before any truncation, so same-seed
  // runs compare equal digests even when stored tables are elided.
  rec.digest = obs::input_digest(rec);
  if (rec.mdss.size() > cfg_.provenance_max_ranks) {
    rec.mdss.clear();
    rec.loads.clear();
    rec.alive.clear();
    rec.truncated = true;
  }
  const Time at = rec.at;
  const int rank = rec.rank;
  const obs::SpanId span = rec.span;
  const std::string digest = rec.digest;
  (provenance_.record(std::move(rec)) ? om_.provenance_records
                                      : om_.provenance_dropped)
      .inc();
  trace_.event(at, obs::EventKind::ProvenanceRecorded, rank, -1, digest, {},
               span);
}

void MdsCluster::set_balancer(MdsRank rank, std::unique_ptr<Balancer> b) {
  if (b != nullptr) b->attach_observability(&metrics_, &trace_);
  node(rank).set_balancer(std::move(b));
}

void MdsCluster::set_balancer_all(const BalancerFactory& factory) {
  for (int r = 0; r < num_mds(); ++r) {
    std::unique_ptr<Balancer> b = factory(r);
    if (b != nullptr) b->attach_observability(&metrics_, &trace_);
    node(r).set_balancer(std::move(b));
  }
}

void MdsCluster::schedule_tick(MdsRank rank) {
  // Daemons drift: each tick lands somewhere inside its jitter window, so
  // the order in which balancers observe and react to each other differs
  // run to run (seed-dependent), as on a real cluster.
  Time when = cfg_.bal_interval + static_cast<Time>(rank) * kMsec;
  if (cfg_.tick_jitter > 0)
    when += rng_.uniform(0, static_cast<std::uint64_t>(cfg_.tick_jitter));
  engine_.schedule_after(when, [this, rank]() {
    // A down/replaying daemon skips the tick (no heartbeat, no balancing)
    // but the schedule keeps re-arming so it resumes after recovery.
    if (is_up(rank)) {
      node(rank).tick();
      flush_dirty(rank);
    }
    schedule_tick(rank);
  });
}

void MdsCluster::send_heartbeat(MdsRank to, Time delay,
                                const HeartbeatPayload& hb) {
  const Time arrival = engine_.now() + delay;
  // A delay that saturates means "never", as it does for schedule_after.
  if (arrival < engine_.now() || arrival == sim::kTimeMax) return;
  node(to).inbox_.push_back({arrival, engine_.reserve_seq(), hb});
}

void MdsCluster::settle_heartbeats() {
  for (const std::unique_ptr<MdsNode>& n : nodes_) n->settle_inbox();
}

void MdsCluster::start() {
  for (int r = 0; r < num_mds(); ++r) schedule_tick(r);
}

void MdsCluster::client_submit(Request r, MdsRank guess) {
  if (guess < 0 || guess >= num_mds()) guess = 0;
  engine_.schedule_after(
      cfg_.net_latency, [this, guess, r = std::move(r)]() mutable {
        if (!is_up(guess)) {
          ++requests_dropped_;  // dead host: no reply; client retry recovers
          om_.requests_dropped.inc();
          return;
        }
        node(guess).on_arrival(std::move(r));
      });
}

void MdsCluster::client_submit_batch(MdsRank guess, std::vector<Request> batch) {
  if (batch.empty()) return;
  if (guess < 0 || guess >= num_mds()) guess = 0;
  engine_.schedule_after(
      cfg_.net_latency, [this, guess, batch = std::move(batch)]() mutable {
        if (!is_up(guess)) {
          requests_dropped_ += batch.size();
          om_.requests_dropped.inc(batch.size());
          return;
        }
        MdsNode& n = node(guess);
        for (Request& r : batch) n.on_arrival(std::move(r));
      });
}

void MdsCluster::route_to(MdsRank rank, Request r) {
  engine_.schedule_after(
      cfg_.net_latency, [this, rank, r = std::move(r)]() mutable {
        if (!is_up(rank)) {
          ++requests_dropped_;
          om_.requests_dropped.inc();
          return;
        }
        node(rank).on_arrival(std::move(r));
      });
}

MdsRank MdsCluster::auth_of(const DirFragId& id) const {
  const DirFrag* f = ns_.frag(id);
  if (f == nullptr) return kNoRank;
  return f->auth == kNoRank ? 0 : f->auth;
}

std::vector<DirFragId> MdsCluster::roots_of(MdsRank rank) const {
  std::vector<DirFragId> out;
  for (const auto& [frag, r] : subtree_roots_)
    if (r == rank) out.push_back(frag);
  return out;
}

bool MdsCluster::frag_contains(const DirFragId& outer,
                               const DirFragId& inner) const {
  if (outer.ino == inner.ino) return outer.frag.contains(inner.frag);
  InodeId cur = inner.ino;
  while (cur != kNoInode) {
    const mantle::mds::Inode* node = ns_.inode(cur);
    if (node == nullptr) return false;
    if (node->parent == outer.ino)
      return outer.frag.contains(hash_dentry_name(node->name));
    cur = node->parent;
  }
  return false;
}

bool MdsCluster::is_frozen(const DirFragId& id) const {
  for (const auto& [mid, mig] : active_migrations_)
    if (frag_contains(mig.rec.frag, id)) return true;
  return false;
}

void MdsCluster::defer_to_migration(const DirFragId& id, Request r) {
  for (auto& [mid, mig] : active_migrations_) {
    if (frag_contains(mig.rec.frag, id)) {
      mig.deferred.push_back(std::move(r));
      return;
    }
  }
  // Raced with completion (or an abort): resend toward the current
  // authority, parking if that rank happens to be down.
  route_or_park(id, std::move(r));
}

PopSnapshot MdsCluster::subtree_pop(const DirFragId& root, MdsRank rank,
                                    Time now) const {
  PopSnapshot out;
  const auto& rate = ns_.decay_rate();
  walk_region(ns_, {root}, rank, [&](const DirFragId&, const DirFrag& f) {
    out.ird += f.pop.get(MetaOp::IRD, now, rate);
    out.iwr += f.pop.get(MetaOp::IWR, now, rate);
    out.readdir += f.pop.get(MetaOp::READDIR, now, rate);
    out.fetch += f.pop.get(MetaOp::FETCH, now, rate);
    out.store += f.pop.get(MetaOp::STORE, now, rate);
  });
  return out;
}

std::size_t MdsCluster::subtree_entry_count(const DirFragId& root,
                                            MdsRank rank) const {
  std::size_t out = 0;
  walk_region(ns_, {root}, rank, [&](const DirFragId&, const DirFrag& f) {
    out += f.dentries.size();
  });
  return out;
}

std::vector<ExportCandidate> MdsCluster::gather_candidates(MdsRank rank,
                                                           double target,
                                                           Balancer& policy,
                                                           Time now) {
  return CandidateCache(*this, rank, now).pool(target, policy);
}

bool MdsCluster::export_subtree(const DirFragId& frag, MdsRank to,
                                obs::SpanId parent_span) {
  if (to < 0 || to >= num_mds()) return false;
  const MdsRank from = auth_of(frag);
  if (from == kNoRank || from == to) return false;
  if (!is_up(from) || !is_up(to)) return false;  // both 2PC ends must live
  if (is_frozen(frag)) return false;
  // The symmetric overlap: exporting an *ancestor* of an in-flight export
  // races its commit. Whichever 2PC finishes second flips only the auth
  // annotations still matching its recorded exporter — annotations the
  // other commit already rewrote — yet still installs itself in the
  // subtree map, leaving map and annotations disagreeing forever. Real
  // CephFS freezes the whole bounded region; we refuse until the inner
  // migration settles.
  for (const auto& [mid, m] : active_migrations_)
    if (frag_contains(frag, m.rec.frag)) return false;
  if (ns_.frag(frag) == nullptr) return false;

  const Time now = engine_.now();
  const std::size_t entries = subtree_entry_count(frag, from);

  ActiveMigration mig;
  mig.rec.started = now;
  mig.rec.from = from;
  mig.rec.to = to;
  mig.rec.frag = frag;
  mig.rec.entries = entries;
  mig.span = trace_.next_span();
  const obs::SpanId span = mig.span;
  const std::size_t id = next_migration_id_++;
  active_migrations_[id] = std::move(mig);

  // Two-phase commit: the exporter logs the export, the importer journals
  // the incoming metadata, the exporter journals the commit. The handshake
  // plus per-entry copying dominates migration latency.
  journals_[static_cast<std::size_t>(from)]->append(
      "EExport " + frag.str() + " to=" + std::to_string(to));
  journals_[static_cast<std::size_t>(to)]->append(
      "EImportStart " + frag.str() + " from=" + std::to_string(from));

  node(from).stats().exports++;
  node(to).stats().imports++;
  om_.exports_started.inc();

  const Time duration =
      cfg_.mig_base + cfg_.mig_per_entry * static_cast<Time>(entries);
  trace_.event(now, obs::EventKind::ExportStart, from, to, frag.str(),
               {{"entries", static_cast<double>(entries)},
                {"eta_ms", static_cast<double>(duration) / kMsec}},
               span, parent_span);
  engine_.schedule_after(duration, [this, id]() { finish_migration(id); });
  // Stuck-export watchdog: a migration still in flight after
  // export_stuck_ticks balance intervals is wedged (in a real cluster:
  // a hung importer, a lost 2PC message). Abort and roll back instead of
  // leaving the subtree frozen — frozen subtrees park every request that
  // touches them.
  if (cfg_.export_stuck_ticks > 0) {
    const Time deadline = static_cast<Time>(cfg_.export_stuck_ticks) *
                          cfg_.bal_interval;
    if (deadline <= duration) {
      engine_.schedule_after(deadline, [this, id]() {
        if (active_migrations_.count(id) == 0) return;
        om_.exports_timed_out.inc();
        abort_migration(id, kNoRank, "stuck-timeout");
      });
    }
  }
  MANTLE_LOG_INFO("migration start %s: mds%d -> mds%d (%zu entries)",
                  frag.str().c_str(), from, to, entries);
  return true;
}

void MdsCluster::finish_migration(std::size_t idx) {
  const auto it = active_migrations_.find(idx);
  if (it == active_migrations_.end()) return;
  ActiveMigration mig = std::move(it->second);
  active_migrations_.erase(it);

  const Time now = engine_.now();
  const MdsRank from = mig.rec.from;
  const MdsRank to = mig.rec.to;

  // Flip authority on the exported fragment and everything nested under it
  // that the exporter owned (foreign bounds keep their owners). Exporter-
  // owned subtree roots the walk passes through stop being roots: their
  // region is annotated `to` now and the exported frag covers it. Roots
  // the walk does NOT reach — nested islands beyond a foreign bound —
  // keep their entries and their annotations; ancestry alone must not
  // absorb them, since the migration never touched them.
  std::vector<DirFragId> absorbed;
  walk_region(ns_, {mig.rec.frag}, from, [&](const DirFragId& cur, DirFrag& f) {
    f.auth = to;
    if (cur != mig.rec.frag && subtree_roots_.count(cur) != 0)
      absorbed.push_back(cur);
    // The importer has to fetch the dirfrag object from RADOS.
    ns_.record_op(cur, MetaOp::FETCH, now);
  });

  // Update the subtree map: the exported frag becomes a bound owned by the
  // importer, absorbing exactly the inner roots the flip traversed.
  for (const DirFragId& r : absorbed) subtree_roots_.erase(r);
  subtree_roots_[mig.rec.frag] = to;

  journals_[static_cast<std::size_t>(from)]->append("EExportCommit " +
                                                    mig.rec.frag.str());
  journals_[static_cast<std::size_t>(to)]->append("EImportCommit " +
                                                  mig.rec.frag.str());

  // Client sessions on both ends are flushed (coherency: capabilities and
  // leases must be re-established), stalling those clients briefly. The
  // paper correlates per-balancer slowdown with exactly these flushes.
  mig.rec.sessions_flushed = flush_client_sessions(from, to);

  mig.rec.finished = now;
  export_retry_attempts_.erase(mig.rec.frag);  // made it; reset the budget
  om_.exports_committed.inc();
  om_.migration_entries.observe(static_cast<double>(mig.rec.entries));
  om_.migration_duration_ms.observe(
      static_cast<double>(now - mig.rec.started) / kMsec);
  trace_.event(
      now, obs::EventKind::ExportCommit, from, to, mig.rec.frag.str(),
      {{"entries", static_cast<double>(mig.rec.entries)},
       {"sessions_flushed", static_cast<double>(mig.rec.sessions_flushed)},
       {"deferred", static_cast<double>(mig.deferred.size())}},
      mig.span);
  migrations_.push_back(mig.rec);

  // Re-inject requests that arrived mid-migration at the new authority.
  for (Request& r : mig.deferred) route_to(to, std::move(r));
  MANTLE_LOG_INFO("migration done %s: mds%d -> mds%d (%zu sessions flushed)",
                  mig.rec.frag.str().c_str(), from, to,
                  mig.rec.sessions_flushed);
}

// ===========================================================================
// Crash, takeover and replay
// ===========================================================================

bool MdsCluster::is_up(MdsRank rank) const {
  return rank >= 0 && rank < num_mds() &&
         life_[static_cast<std::size_t>(rank)] == NodeLife::Up;
}

bool MdsCluster::is_replaying(MdsRank rank) const {
  return rank >= 0 && rank < num_mds() &&
         life_[static_cast<std::size_t>(rank)] == NodeLife::Replaying;
}

std::uint64_t MdsCluster::crash_epoch(MdsRank rank) const {
  if (rank < 0 || rank >= num_mds()) return 0;
  return crash_epoch_[static_cast<std::size_t>(rank)];
}

std::vector<MigrationRecord> MdsCluster::active_migration_records() const {
  std::vector<MigrationRecord> out;
  out.reserve(active_migrations_.size());
  for (const auto& [id, mig] : active_migrations_) out.push_back(mig.rec);
  return out;
}

int MdsCluster::num_up() const {
  int n = 0;
  for (const NodeLife l : life_) n += l == NodeLife::Up;
  return n;
}

MdsRank MdsCluster::pick_up_rank(MdsRank avoid) const {
  MdsRank any = kNoRank;
  for (int r = 0; r < num_mds(); ++r) {
    if (!is_up(r)) continue;
    if (r != avoid) return r;
    if (any == kNoRank) any = r;
  }
  return any == kNoRank ? 0 : any;
}

Time MdsCluster::replay_duration(MdsRank rank) const {
  return cfg_.replay_base +
         cfg_.replay_per_entry *
             static_cast<Time>(
                 journals_[static_cast<std::size_t>(rank)]->live_entries());
}

void MdsCluster::log_recovery(RecoveryEvent::Kind kind, MdsRank rank,
                              MdsRank peer, std::uint64_t detail,
                              obs::SpanId span) {
  const Time now = engine_.now();
  recovery_log_.push_back({now, kind, rank, peer, detail});
  if (span == obs::kNoSpan && rank >= 0 && rank < num_mds())
    span = recovery_span_[static_cast<std::size_t>(rank)];

  // Mirror the recovery timeline into the trace sink (with counters), so
  // crash/takeover/replay land on the same timeline as the balancing and
  // migration events they perturb.
  obs::EventKind ek = obs::EventKind::Crash;
  switch (kind) {
    case RecoveryEvent::Kind::Crash:
      ek = obs::EventKind::Crash;
      om_.crashes.inc();
      break;
    case RecoveryEvent::Kind::MigrationAborted:
      ek = obs::EventKind::ExportAbort;
      om_.exports_aborted.inc();
      break;
    case RecoveryEvent::Kind::TakeoverStart:
      ek = obs::EventKind::TakeoverStart;
      om_.replay_entries.observe(static_cast<double>(detail));
      break;
    case RecoveryEvent::Kind::TakeoverComplete:
      ek = obs::EventKind::TakeoverComplete;
      om_.takeovers.inc();
      break;
    case RecoveryEvent::Kind::RestartStart:
      ek = obs::EventKind::Restart;
      om_.restarts.inc();
      om_.replay_entries.observe(static_cast<double>(detail));
      break;
    case RecoveryEvent::Kind::ReplayComplete:
      ek = obs::EventKind::ReplayComplete;
      break;
  }
  trace_.event(now, ek, rank, peer, recovery_kind_name(kind),
               {{"detail", static_cast<double>(detail)}}, span);
}

void MdsCluster::route_or_park(const DirFragId& frag, Request r) {
  // The addressed fragment can split or merge away while the request is
  // in flight (forward latency, migration freeze, dead-letter parking all
  // open a window). A stale frag id resolves to no authority; re-resolve
  // against the current fragmentation instead of parking a request that
  // nothing would ever un-park.
  DirFragId target = frag;
  if (ns_.frag(target) == nullptr && ns_.dir(r.dir) != nullptr)
    target = ns_.frag_of(r.dir, r.name);
  const MdsRank auth = auth_of(target);
  if (is_up(auth)) {
    route_to(auth, std::move(r));
  } else {
    om_.dead_letter_parked.inc();
    trace_.event(engine_.now(), obs::EventKind::DeadLetterParked, auth, -1,
                 target.str(), {{"req", static_cast<double>(r.id)}}, r.span);
    dead_letter_.emplace_back(target, std::move(r));
  }
}

void MdsCluster::flush_dead_letters() {
  std::vector<std::pair<DirFragId, Request>> pending;
  pending.swap(dead_letter_);
  if (pending.empty()) return;
  om_.dead_letter_flushed.inc(pending.size());
  // One flush event per request, carrying the op's span: parked and
  // flushed events pair 1:1, so parked - flushed at any cut of the
  // timeline is exactly the number of requests still parked (the
  // dead-letter-leak detector counts on this).
  for (auto& [frag, req] : pending) {
    trace_.event(engine_.now(), obs::EventKind::DeadLetterFlushed,
                 auth_of(frag), -1, frag.str(),
                 {{"req", static_cast<double>(req.id)}}, req.span);
    route_or_park(frag, std::move(req));
  }
}

void MdsCluster::abort_migration(std::size_t id, MdsRank dead,
                                 const char* reason) {
  const auto it = active_migrations_.find(id);
  if (it == active_migrations_.end()) return;
  ActiveMigration mig = std::move(it->second);
  active_migrations_.erase(it);
  const Time now = engine_.now();

  // Rollback is cheap because authority only flips at commit: the
  // exporter (if alive) still owns the subtree and just journals the
  // abort; a dead exporter's subtree is handled by takeover/replay.
  if (dead == kNoRank) {
    // Watchdog abort: both ends live; both journal their abort.
    journals_[static_cast<std::size_t>(mig.rec.from)]->append(
        "EExportAbort " + mig.rec.frag.str() + " reason=" + reason);
    journals_[static_cast<std::size_t>(mig.rec.to)]->append(
        "EImportAbort " + mig.rec.frag.str() + " reason=" + reason);
    log_recovery(RecoveryEvent::Kind::MigrationAborted, mig.rec.from,
                 mig.rec.to, mig.deferred.size(), mig.span);
  } else {
    const MdsRank survivor = mig.rec.from == dead ? mig.rec.to : mig.rec.from;
    if (is_up(survivor)) {
      journals_[static_cast<std::size_t>(survivor)]->append(
          (survivor == mig.rec.from ? "EExportAbort " : "EImportAbort ") +
          mig.rec.frag.str() + " peer=" + std::to_string(dead));
    }
    log_recovery(RecoveryEvent::Kind::MigrationAborted, dead, survivor,
                 mig.deferred.size(), mig.span);
    // A crash-aborted export is worth re-attempting once the dust
    // settles: the load imbalance that motivated it is still there.
    if (is_up(mig.rec.from) || is_replaying(mig.rec.from))
      schedule_export_retry(mig.rec.frag, mig.rec.to);
  }
  mig.rec.finished = now;
  MANTLE_LOG_INFO("migration abort %s: mds%d -> mds%d (%s, "
                  "%zu deferred re-injected)",
                  mig.rec.frag.str().c_str(), mig.rec.from, mig.rec.to, reason,
                  mig.deferred.size());
  aborted_migrations_.push_back(mig.rec);

  // Requests parked on the frozen subtree thaw toward its (unchanged)
  // authority — or the dead-letter queue if the exporter is the casualty.
  for (Request& r : mig.deferred) route_or_park(mig.rec.frag, std::move(r));
}

void MdsCluster::abort_migrations_of(MdsRank dead) {
  std::vector<std::size_t> doomed;
  for (const auto& [id, mig] : active_migrations_)
    if (mig.rec.from == dead || mig.rec.to == dead) doomed.push_back(id);
  for (const std::size_t id : doomed) abort_migration(id, dead, "peer-died");
}

void MdsCluster::schedule_export_retry(const DirFragId& frag, MdsRank to) {
  if (cfg_.export_retry_max <= 0) return;
  int& attempts = export_retry_attempts_[frag];
  if (attempts >= cfg_.export_retry_max) {
    export_retry_attempts_.erase(frag);
    return;
  }
  const int attempt = attempts++;
  // Exponential backoff with deterministic jitter (+/- 25%): retries of
  // distinct subtrees de-synchronize instead of slamming the recovering
  // peer in one burst, and the same seed always yields the same delays.
  const Time base = std::max<Time>(cfg_.export_retry_base, 1);
  Time delay = base;
  for (int i = 0; i < attempt && delay < cfg_.export_retry_cap; ++i)
    delay *= 2;
  delay = std::min(delay, std::max<Time>(cfg_.export_retry_cap, base));
  const double jitter = 0.75 + 0.5 * retry_rng_.next_double();
  delay = std::max<Time>(static_cast<Time>(
                             static_cast<double>(delay) * jitter),
                         1);
  om_.exports_retried.inc();
  trace_.event(engine_.now(), obs::EventKind::ExportRetry, auth_of(frag), to,
               frag.str(),
               {{"attempt", static_cast<double>(attempt + 1)},
                {"delay_ms", static_cast<double>(delay) / kMsec}});
  MANTLE_LOG_INFO("export retry %d/%d for %s -> mds%d in %lld us",
                  attempt + 1, cfg_.export_retry_max, frag.str().c_str(), to,
                  static_cast<long long>(delay));
  engine_.schedule_after(delay, [this, frag, to]() {
    // Conditions are re-checked inside export_subtree: the exporter may
    // have lost the subtree, either end may be down, the frag may be
    // frozen by a newer migration. A refused retry re-arms until the
    // attempt budget is spent.
    if (!export_subtree(frag, to)) {
      const MdsRank from = auth_of(frag);
      if (from != kNoRank && from != to && ns_.frag(frag) != nullptr)
        schedule_export_retry(frag, to);
      else
        export_retry_attempts_.erase(frag);
    }
  });
}

bool MdsCluster::crash_mds(MdsRank rank) {
  if (rank < 0 || rank >= num_mds()) return false;
  const auto idx = static_cast<std::size_t>(rank);
  // A rank can die while Up (serving) or while Replaying (killed again in
  // the middle of recovering from its previous crash — the back-to-back
  // crash case). Only an already-down rank cannot crash further.
  if (life_[idx] == NodeLife::Down) return false;

  settle_heartbeats();
  const Time now = engine_.now();
  life_[idx] = NodeLife::Down;
  ++crash_epoch_[idx];
  const std::uint64_t epoch = crash_epoch_[idx];

  const std::size_t lost = node(rank).reset_for_crash(now);
  requests_dropped_ += lost;
  // One recovery span per crash arc: crash, takeover/restart and replay
  // events for this rank all share it (log_recovery falls back to it).
  recovery_span_[idx] = trace_.next_span();
  log_recovery(RecoveryEvent::Kind::Crash, rank, kNoRank, lost);
  MANTLE_LOG_INFO("mds%d crashed (%zu queued requests lost)", rank, lost);

  abort_migrations_of(rank);

  // Survivor takeover: the lowest up rank replays the dead journal and
  // adopts its subtrees. Skipped when the rank restarts first (the replay
  // then happens on the restarting rank itself) or nobody survives.
  if (cfg_.takeover_on_crash && !roots_of(rank).empty()) {
    const MdsRank survivor = pick_up_rank(rank);
    if (is_up(survivor) && survivor != rank) {
      const Time replay = replay_duration(rank);
      log_recovery(RecoveryEvent::Kind::TakeoverStart, rank, survivor,
                   journals_[idx]->live_entries());
      engine_.schedule_after(replay, [this, rank, survivor, epoch]() {
        const auto i = static_cast<std::size_t>(rank);
        // The rank came back (or crashed again) in the meantime: its own
        // restart replay owns recovery now.
        if (crash_epoch_[i] != epoch || life_[i] != NodeLife::Down) return;
        if (!is_up(survivor)) return;  // adopter died too; wait for restart
        adopt_subtrees(rank, survivor);
        journals_[i]->trim(journals_[i]->next_seq());  // consumed by replay
        journals_[static_cast<std::size_t>(survivor)]->append(
            "ETakeover from=" + std::to_string(rank));
        log_recovery(RecoveryEvent::Kind::TakeoverComplete, rank, survivor, 0);
        MANTLE_LOG_INFO("mds%d took over mds%d's subtrees", survivor, rank);
        flush_dead_letters();
      });
    }
  }
  return true;
}

void MdsCluster::adopt_subtrees(MdsRank from, MdsRank to) {
  const Time now = engine_.now();
  for (const DirFragId& root : roots_of(from)) {
    walk_region(ns_, {root}, from, [&](const DirFragId& cur, DirFrag& f) {
      f.auth = to;
      // The adopter fetches the dirfrag objects from the object store.
      ns_.record_op(cur, MetaOp::FETCH, now);
    });
    subtree_roots_[root] = to;
  }
}

bool MdsCluster::restart_mds(MdsRank rank) {
  if (rank < 0 || rank >= num_mds()) return false;
  const auto idx = static_cast<std::size_t>(rank);
  if (life_[idx] != NodeLife::Down) return false;

  life_[idx] = NodeLife::Replaying;
  const std::uint64_t epoch = crash_epoch_[idx];
  const Time replay = replay_duration(rank);
  log_recovery(RecoveryEvent::Kind::RestartStart, rank, kNoRank,
               journals_[idx]->live_entries());
  MANTLE_LOG_INFO("mds%d restarting: replaying %zu journal entries", rank,
                  journals_[idx]->live_entries());
  engine_.schedule_after(replay, [this, rank, epoch]() {
    const auto i = static_cast<std::size_t>(rank);
    if (crash_epoch_[i] != epoch || life_[i] != NodeLife::Replaying) return;
    settle_heartbeats();
    life_[i] = NodeLife::Up;
    journals_[i]->trim(journals_[i]->next_seq());
    journals_[i]->append("ERestart");
    log_recovery(RecoveryEvent::Kind::ReplayComplete, rank, kNoRank, 0);
    MANTLE_LOG_INFO("mds%d finished replay, serving again", rank);
    // Subtrees it still owns (no takeover happened) are serviceable again.
    flush_dead_letters();
  });
  return true;
}

bool MdsCluster::maybe_merge(InodeId dirino) {
  mantle::mds::Dir* d = ns_.dir(dirino);
  if (d == nullptr || d->frags.size() <= 1) return false;
  if (d->num_entries() >= cfg_.merge_size) return false;
  MdsRank owner = kNoRank;
  std::vector<DirFragId> child_roots;
  for (const auto& [f, df] : d->frags) {
    const MdsRank a = df.auth == kNoRank ? 0 : df.auth;
    if (owner == kNoRank) owner = a;
    if (a != owner) return false;  // auth boundary inside the directory
    const DirFragId id{dirino, f};
    if (is_frozen(id)) return false;
    if (subtree_roots_.count(id) != 0) child_roots.push_back(id);
  }
  if (!ns_.merge(dirino, frag_t(), engine_.now())) return false;
  ns_.frag({dirino, frag_t()})->auth = owner;
  if (!child_roots.empty()) {
    for (const DirFragId& r : child_roots) subtree_roots_.erase(r);
    subtree_roots_[{dirino, frag_t()}] = owner;
  }
  om_.merges.inc();
  trace_.event(engine_.now(), obs::EventKind::DirfragMerge, owner, -1,
               DirFragId{dirino, frag_t()}.str());
  MANTLE_LOG_INFO("dirfrag merge: dir %llu back to a single fragment",
                  static_cast<unsigned long long>(dirino));
  return true;
}

void MdsCluster::maybe_split(const DirFragId& id) {
  DirFrag* f = ns_.frag(id);
  if (f == nullptr || f->dentries.size() <= cfg_.split_size) return;
  if (is_frozen(id)) return;
  const auto rit = subtree_roots_.find(id);
  const bool was_root = rit != subtree_roots_.end();
  const MdsRank owner = was_root ? rit->second : auth_of(id);
  const std::vector<frag_t> kids =
      ns_.split(id, cfg_.split_bits, engine_.now());
  if (kids.empty()) return;
  if (was_root) {
    subtree_roots_.erase(id);
    for (const frag_t k : kids) subtree_roots_[{id.ino, k}] = owner;
  }
  om_.splits.inc();
  trace_.event(engine_.now(), obs::EventKind::DirfragSplit, owner, -1,
               id.str(), {{"fragments", static_cast<double>(kids.size())}});
  MANTLE_LOG_INFO("dirfrag split %s into %zu fragments", id.str().c_str(),
                  kids.size());
}

void MdsCluster::flush_dirty(MdsRank rank) {
  // Periodic dirty-dirfrag writeback: each flush is a STORE on the frag
  // (feeding the `store` term of the metaload) and an omap write.
  const Time now = engine_.now();
  for (const DirFragId& root : roots_of(rank)) {
    walk_region(ns_, {root}, rank, [&](const DirFragId& cur, DirFrag& f) {
      if (!f.dirty) return;
      f.dirty = false;
      store_.omap_set("dir." + cur.str(), "version",
                      std::to_string(now / kMsec));
      ns_.record_op(cur, MetaOp::STORE, now);
    });
  }
}

void MdsCluster::reparent_subtree(InodeId dir, MdsRank from, MdsRank to) {
  const mantle::mds::Dir* d = ns_.dir(dir);
  if (d == nullptr || from == to) return;
  std::vector<DirFragId> frags;
  for (const auto& [f, df] : d->frags) frags.push_back({dir, f});
  auto hand_over = [&](const DirFragId& cur, DirFrag& f) {
    f.auth = to;
    const auto rit = subtree_roots_.find(cur);
    if (rit != subtree_roots_.end() && rit->second == from)
      rit->second = to;
  };
  walk_region(ns_, std::move(frags), from, hand_over);
}

std::size_t MdsCluster::flush_client_sessions(MdsRank a, MdsRank b) {
  if (a < 0 || b < 0 || a >= num_mds() || b >= num_mds()) return 0;
  const Time stall_until = engine_.now() + cfg_.session_flush_stall;
  // Union of the two ranks' session lists without materializing a set:
  // a generation stamp marks ids already counted in this flush.
  ++flush_gen_;
  std::size_t flushed = 0;
  for (const MdsRank rk : {a, b}) {
    for (const int c : sessions_[static_cast<std::size_t>(rk)].members()) {
      const auto id = static_cast<std::size_t>(c);
      if (id >= flush_mark_.size()) flush_mark_.resize(id + 1, 0);
      if (flush_mark_[id] == flush_gen_) continue;
      flush_mark_[id] = flush_gen_;
      ++flushed;
      if (id >= client_stall_until_.size())
        client_stall_until_.resize(id + 1, 0);
      Time& until = client_stall_until_[id];
      until = std::max(until, stall_until);
    }
  }
  sessions_flushed_ += flushed;
  om_.sessions_flushed.inc(flushed);
  return flushed;
}

void MdsCluster::deliver_reply(Reply rep) {
  if (rep.finished_at >= rep.issued_at)
    om_.request_latency_ms.observe(
        static_cast<double>(rep.finished_at - rep.issued_at) / kMsec);
  Time when = engine_.now() + cfg_.net_latency;
  if (rep.client >= 0) {
    const auto id = static_cast<std::size_t>(rep.client);
    if (id < client_stall_until_.size() && client_stall_until_[id] > when)
      when = client_stall_until_[id];
  }
  if (reply_cb_) {
    engine_.schedule_at(when,
                        [this, rep = std::move(rep)]() { reply_cb_(rep); });
  }
}

void MdsCluster::note_session(MdsRank rank, int client) {
  if (client >= 0) sessions_[static_cast<std::size_t>(rank)].note(client);
}

std::uint64_t MdsCluster::total_forwards() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) n += node->stats().forwards_out;
  return n;
}

std::uint64_t MdsCluster::total_hits() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) n += node->stats().hits;
  return n;
}

std::uint64_t MdsCluster::total_completed() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) n += node->stats().completed;
  return n;
}

std::vector<std::size_t> MdsCluster::auth_entry_counts() const {
  std::vector<std::size_t> out(static_cast<std::size_t>(num_mds()), 0);
  for (const auto& [frag, rank] : subtree_roots_)
    out[static_cast<std::size_t>(rank)] += subtree_entry_count(frag, rank);
  return out;
}

std::size_t MdsCluster::auth_entry_count(MdsRank rank) const {
  std::size_t n = 0;
  for (const auto& [frag, r] : subtree_roots_)
    if (r == rank) n += subtree_entry_count(frag, rank);
  return n;
}

}  // namespace mantle::cluster

#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/balancer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timeline.hpp"
#include "mds/namespace.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "store/object_store.hpp"

/// \file cluster.hpp
/// The simulated CephFS metadata cluster: N MDS nodes serving one shared
/// namespace, with dynamic subtree partitioning, directory fragmentation,
/// heartbeat-based load exchange, and two-phase-commit inode migration.
/// This is the mechanism layer of Figure 2 in the paper ("send HB /
/// recv HB / rebalance / fragment / partition cluster / partition
/// namespace / migrate"); the policy decisions are delegated to a
/// per-node Balancer (either the hard-coded CephFS one or Mantle).

namespace mantle::cluster {

using mantle::Rng;
using mantle::Time;
using mantle::Timeline;
using mantle::mds::DirFragId;
using mantle::mds::InodeId;
using mantle::mds::MdsRank;
using mantle::mds::MetaOp;

struct ClusterConfig {
  int num_mds = 1;
  std::uint64_t seed = 1;

  // -- service model (all times in simulated microseconds) -----------------
  Time net_latency = 100;        // one-way client<->MDS / MDS<->MDS hop
  Time svc_create = 150;
  Time svc_mkdir = 250;
  Time svc_getattr = 60;
  Time svc_lookup = 60;
  Time svc_readdir = 400;
  Time svc_unlink = 120;
  Time svc_forward = 30;         // cost of bouncing a misdirected request
  /// Extra per-request cost when the serving MDS is not the authority of
  /// the target's parent directory: it must resolve the path against
  /// replicated ancestor prefixes and keep them coherent. Part of the
  /// locality tax of §2.1 (fewer forwards, less coherency communication,
  /// less prefix-replica memory).
  Time svc_remote_prefix = 10;
  /// Per-mutation cost for each *additional* MDS sharing fragments of the
  /// target directory: updating fragstats/rstats on a directory whose
  /// dirfrags span k MDS nodes requires scatter-gather rounds with the
  /// other k-1 ("halting updates on a directory, sending stats around the
  /// cluster, and waiting for the authoritative MDS", §4.1 footnote).
  /// This is what makes spreading one hot directory progressively more
  /// expensive as more MDS nodes share it.
  Time svc_scatter_gather = 18;
  double svc_jitter = 0.08;      // +/- fraction on service times

  // -- balancing -------------------------------------------------------------
  Time bal_interval = 10 * kSec;   // heartbeat + rebalance period (CephFS: 10s)
  Time hb_delay = 250 * kMsec;     // pack + network + unpack => stale views
  /// Daemons are not synchronized: each balancer tick lands up to this
  /// much after its nominal time, and heartbeat delays vary by up to
  /// +/- hb_jitter_frac. Both feed the run-to-run irreproducibility the
  /// paper documents in Figure 4 (decisions race against stale state).
  Time tick_jitter = 500 * kMsec;
  double hb_jitter_frac = 0.5;
  double cpu_noise_pct = 4.0;      // stddev of instantaneous CPU measurement
  double bal_min_load = 0.01;      // below this an MDS is "idle"
  double need_min_factor = 1.0;    // target-load fudge (ablation: 0.8, §2.2.3)
  int max_drill_depth = 8;         // namespace drill-down bound
  double too_big_factor = 1.0;     // candidates above target*factor get drilled

  // -- directory fragmentation -------------------------------------------------
  std::size_t split_size = 50000;  // dentries before a dirfrag splits (paper)
  std::uint8_t split_bits = 3;     // first split makes 2^3 = 8 dirfrags (paper)
  std::size_t merge_size = 50;     // fragmented dirs below this merge back

  // -- migration cost model ------------------------------------------------------
  Time mig_base = 20 * kMsec;       // 2PC journaling handshake floor
  Time mig_per_entry = 10;          // per exported dentry
  Time session_flush_stall = 10 * kMsec;  // per-client stall on session flush
  double mem_capacity_entries = 400000;  // entries mapping to 100% memory

  // -- fault tolerance -----------------------------------------------------------
  /// A peer whose last heartbeat is older than laggy_factor * bal_interval
  /// is treated as dead-or-laggy: zero load in the ClusterView, excluded
  /// from total_load and from export targets. <= 0 disables detection.
  double laggy_factor = 3.0;
  /// Journal replay cost on MDS takeover/restart: base handshake plus a
  /// per-live-entry charge (recovery time proportional to journal size).
  Time replay_base = 50 * kMsec;
  Time replay_per_entry = 200;
  /// On a crash, survivors adopt the dead rank's auth subtrees after
  /// replaying its journal. When false the subtrees stay with the dead
  /// rank and only become serviceable once it restarts and replays.
  bool takeover_on_crash = true;
  /// Reject heartbeats that would regress a peer's state: payloads whose
  /// epoch predates the sender's last crash (duplicated/delayed from a
  /// dead incarnation) or whose sent_at is older than what is already
  /// stored (out-of-order delivery under injected delays). Disabling this
  /// reintroduces the stale-epoch bug the chaos shrinker is seeded with.
  bool hb_stale_guard = true;
  /// Bounded retry for 2PC exports aborted by a peer crash: up to
  /// export_retry_max re-attempts per subtree, delayed by exponential
  /// backoff (base * 2^attempt, capped, +/- deterministic jitter).
  /// 0 disables retries.
  int export_retry_max = 3;
  Time export_retry_base = 500 * kMsec;
  Time export_retry_cap = 10 * kSec;
  /// Watchdog on in-flight 2PC exports: a migration still active after
  /// this many balance intervals is aborted and rolled back instead of
  /// freezing its subtree forever. 0 disables the watchdog. The default
  /// is far above any simulated migration duration, so it only fires on
  /// genuinely wedged exports.
  int export_stuck_ticks = 30;
  /// Readmission hysteresis for laggy peers: a rank that was excluded
  /// from the ClusterView must look fresh for this many consecutive
  /// balancer ticks before it is trusted as an export target again, so a
  /// flapping peer does not oscillate in and out of the view. 1 =
  /// readmit on the first fresh observation (the pre-hysteresis
  /// behavior).
  int laggy_readmit_ticks = 1;

  // -- observability -----------------------------------------------------------
  /// Bound on the cluster's trace sink. Overflowing events are counted in
  /// trace().dropped_events() instead of stored; the cap is part of the
  /// config, so truncated timelines are still deterministic.
  std::size_t trace_capacity = std::size_t{1} << 20;
  /// Bound on the decision provenance recorder (one record per balancer
  /// tick per rank). Overflowing records are counted, not stored, with
  /// the same determinism argument as trace_capacity.
  std::size_t provenance_capacity = 4096;
  /// Above this many ranks the per-rank input tables (mdss/loads/alive)
  /// are elided from stored records — the input digest still covers the
  /// full table, so cross-run comparisons keep working at 512 ranks
  /// without each record costing O(ranks) memory.
  std::size_t provenance_max_ranks = 64;
};

enum class OpType { Create, Mkdir, Getattr, Lookup, Readdir, Unlink, Rename };

/// Number of OpType values (keep in sync with the enum; Rename is last).
inline constexpr std::size_t kNumOpTypes =
    static_cast<std::size_t>(OpType::Rename) + 1;

const char* op_name(OpType op);

/// A client metadata request, addressed by directory inode + dentry name.
struct Request {
  std::uint64_t id = 0;
  int client = -1;
  OpType op = OpType::Getattr;
  InodeId dir = mantle::mds::kNoInode;
  std::string name;
  // Rename only: destination directory + dentry name.
  InodeId dst_dir = mantle::mds::kNoInode;
  std::string dst_name;
  Time issued_at = 0;
  int hops = 0;  // forwards experienced so far
  /// Root causal span of the logical client op. Forwards and client
  /// retries reuse it (new request id, same span), so everything one op
  /// caused — bounces, dead-letter parks, re-injections — shares one id.
  obs::SpanId span = obs::kNoSpan;
};

struct Reply {
  std::uint64_t req_id = 0;
  int client = -1;
  bool ok = false;
  MdsRank served_by = mantle::mds::kNoRank;
  InodeId dir = mantle::mds::kNoInode;   // for the client's auth cache
  mantle::mds::frag_t frag;              // which dirfrag served the op
  InodeId result_ino = mantle::mds::kNoInode;
  int hops = 0;
  Time issued_at = 0;
  Time finished_at = 0;
  obs::SpanId span = obs::kNoSpan;  // echoed from the request
};

/// A completed or in-flight subtree migration, for logs and tests.
struct MigrationRecord {
  Time started = 0;
  Time finished = 0;
  MdsRank from = mantle::mds::kNoRank;
  MdsRank to = mantle::mds::kNoRank;
  DirFragId frag;
  std::size_t entries = 0;
  std::size_t sessions_flushed = 0;

  bool operator==(const MigrationRecord&) const = default;
};

/// One entry of the cluster's recovery log: every fault-handling action
/// (crash observed, migration aborted, takeover, replay) is recorded here
/// in event order, so tests can assert the recovery timeline and the
/// determinism suite can compare two runs event by event.
struct RecoveryEvent {
  enum class Kind {
    Crash,             // rank went down
    MigrationAborted,  // 2PC export aborted because rank died (peer = other end)
    TakeoverStart,     // peer begins replaying rank's journal
    TakeoverComplete,  // peer now owns rank's former subtrees
    RestartStart,      // rank is back, replaying its own journal
    ReplayComplete,    // rank finished replay and is serving again
  };
  Time at = 0;
  Kind kind = Kind::Crash;
  MdsRank rank = mantle::mds::kNoRank;  // the subject of the event
  MdsRank peer = mantle::mds::kNoRank;  // survivor / migration peer, if any
  std::uint64_t detail = 0;  // journal entries replayed, requests dropped, ...

  bool operator==(const RecoveryEvent&) const = default;
};

const char* recovery_kind_name(RecoveryEvent::Kind kind);

/// Network-level fault decisions, consulted on every heartbeat send. The
/// default (null) injects nothing; fault::FaultInjector implements this
/// with seeded probabilistic drops/duplicates/delays.
class NetworkFaults {
 public:
  virtual ~NetworkFaults() = default;
  virtual bool drop_heartbeat(MdsRank from, MdsRank to) = 0;
  virtual bool duplicate_heartbeat(MdsRank from, MdsRank to) = 0;
  virtual Time extra_heartbeat_delay(MdsRank from, MdsRank to) = 0;
};

struct MdsStats {
  std::uint64_t completed = 0;
  std::uint64_t forwards_out = 0;  // requests this node had to bounce
  std::uint64_t hits = 0;          // requests it served as the authority
  std::uint64_t remote_prefix_ops = 0;  // served with a foreign parent dir
  std::uint64_t exports = 0;
  std::uint64_t imports = 0;
  /// Completions by op type, indexed by static_cast<size_t>(OpType). A
  /// fixed array bumped in MdsNode::complete(): per-rank op mixes without
  /// any per-client container on the hot path.
  std::array<std::uint64_t, kNumOpTypes> ops_by_type{};
  Timeline throughput{mantle::kSec};  // completed requests per second
};

/// Dense per-rank session bookkeeping. This used to be a std::set<int>
/// per rank: O(log n) node-allocating insert on every completed request.
/// Client ids are dense (Scenario hands them out 0..N-1), so a byte map
/// plus a membership vector gives O(1) amortized note() and iteration in
/// first-contact order.
class SessionTable {
 public:
  /// Record a session for `client` (idempotent). Caller guards client >= 0.
  void note(int client) {
    const auto id = static_cast<std::size_t>(client);
    if (id >= seen_.size()) seen_.resize(id + 1, 0);
    if (seen_[id] == 0) {
      seen_[id] = 1;
      members_.push_back(client);
    }
  }

  /// Clients with a session on this rank, in first-contact order.
  const std::vector<int>& members() const noexcept { return members_; }
  std::size_t size() const noexcept { return members_.size(); }

 private:
  std::vector<std::uint8_t> seen_;
  std::vector<int> members_;
};

class MdsCluster;

/// Cached handles into the cluster's metrics registry. Hot paths (request
/// completion, heartbeat fan-out) bump these directly instead of paying a
/// name lookup per event; the registry owns the storage.
struct ClusterMetrics {
  explicit ClusterMetrics(obs::MetricsRegistry& reg);

  obs::Counter& requests_completed;
  obs::Counter& requests_dropped;
  obs::Counter& forwards;
  obs::Counter& hb_sent;
  obs::Counter& hb_received;
  obs::Counter& hb_dropped;
  obs::Counter& hb_duplicated;
  obs::Counter& hb_stale_rejected;
  obs::Counter& when_true;
  obs::Counter& when_false;
  obs::Counter& exports_started;
  obs::Counter& exports_committed;
  obs::Counter& exports_aborted;
  obs::Counter& exports_retried;
  obs::Counter& exports_timed_out;
  obs::Counter& splits;
  obs::Counter& merges;
  obs::Counter& dead_letter_parked;
  obs::Counter& dead_letter_flushed;
  obs::Counter& crashes;
  obs::Counter& restarts;
  obs::Counter& takeovers;
  obs::Counter& sessions_flushed;
  obs::Counter& provenance_records;
  obs::Counter& provenance_dropped;
  obs::Histogram& request_latency_ms;
  obs::Histogram& migration_entries;
  obs::Histogram& migration_duration_ms;
  obs::Histogram& replay_entries;
};

/// One metadata server: a FIFO service queue, per-window utilization
/// accounting, heartbeat state, and a pluggable balancing policy.
class MdsNode {
 public:
  MdsNode(MdsCluster& cluster, MdsRank rank, Rng rng);

  MdsRank rank() const { return rank_; }

  void set_balancer(std::unique_ptr<Balancer> b) { balancer_ = std::move(b); }
  Balancer* balancer() { return balancer_.get(); }

  /// A request arrives over the network (from a client or a forward).
  void on_arrival(Request r);

  /// Heartbeat from a peer lands after its network delay.
  void on_heartbeat(const HeartbeatPayload& hb);

  /// Periodic balancer tick: measure, send heartbeats, maybe rebalance.
  void tick();

  const MdsStats& stats() const { return stats_; }
  MdsStats& stats() { return stats_; }
  std::size_t queue_length() const { return queue_.size(); }

  /// Last heartbeat applied from each rank (index = rank; [rank()] is
  /// this node's own latest measurement). Read by the chaos invariant
  /// checker to assert per-sender (epoch, sent_at) never regresses.
  const std::vector<HeartbeatPayload>& heartbeats() const { return hb_; }

  /// Fresh metrics snapshot (also what goes into this node's heartbeat).
  HeartbeatPayload measure();

 private:
  friend class MdsCluster;

  void maybe_start();
  void process_front();
  void complete(Request r, Time svc);
  Time service_time(OpType op);

  /// Crash teardown: drop the queue and the op in service, invalidate
  /// every scheduled continuation (epoch bump), reset window accounting.
  /// Returns the number of requests lost.
  std::size_t reset_for_crash(Time now);

  MdsCluster& cluster_;
  MdsRank rank_;
  Rng rng_;
  std::deque<Request> queue_;
  bool busy_ = false;
  /// Bumped on every crash; scheduled service continuations capture the
  /// epoch they were created under and no-op if it has moved on (the
  /// request they carried died with the process).
  std::uint64_t epoch_ = 0;

  // Window accounting for CPU / request-rate metrics.
  Time window_start_ = 0;
  Time busy_in_window_ = 0;
  std::uint64_t done_in_window_ = 0;

  std::vector<HeartbeatPayload> hb_;  // last received from each rank
  /// Consecutive ticks each peer has looked fresh (non-laggy); a peer
  /// must reach laggy_readmit_ticks before it is trusted again.
  std::vector<int> fresh_streak_;
  std::unique_ptr<Balancer> balancer_;
  MdsStats stats_;
  mantle::DecayCounter forward_pop_;  // decayed load from misdirected reqs
};

/// The cluster: owns the namespace, the object store, the MDS nodes, the
/// subtree-authority map and the migration machinery.
class MdsCluster {
 public:
  MdsCluster(sim::Engine& engine, ClusterConfig cfg);

  /// The one event engine every cluster event, client and fault runs on:
  /// read the clock with engine().now() and schedule with
  /// engine().schedule_after()/schedule_at().
  sim::Engine& engine() { return engine_; }
  const ClusterConfig& config() const { return cfg_; }

  mantle::mds::Namespace& ns() { return ns_; }
  const mantle::mds::Namespace& ns() const { return ns_; }
  store::ObjectStore& object_store() { return store_; }

  /// Cluster-wide metrics registry and structured trace sink. Always on:
  /// every counter bump and trace record uses simulated time and
  /// deterministic ordering, so two identical seeded runs export
  /// byte-identical snapshots.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::TraceSink& trace() { return trace_; }
  const obs::TraceSink& trace() const { return trace_; }

  /// Decision provenance flight recorder: one DecisionRecord per
  /// balancer tick, linked to the tick's trace span.
  obs::ProvenanceRecorder& provenance() { return provenance_; }
  const obs::ProvenanceRecorder& provenance() const { return provenance_; }

  /// Finalize and store one decision record: compute the input digest,
  /// apply the provenance_max_ranks truncation, bump the provenance
  /// counters and mirror a `provenance-decision` event onto the
  /// record's tick span.
  void record_provenance(obs::DecisionRecord rec);

  int num_mds() const { return static_cast<int>(nodes_.size()); }
  MdsNode& node(MdsRank r) { return *nodes_.at(static_cast<std::size_t>(r)); }
  /// A rank's MDS journal (migration events; replayed on recovery).
  store::Journal& journal(MdsRank r) {
    return *journals_.at(static_cast<std::size_t>(r));
  }

  /// Install a balancing policy on one node (or all nodes via rank -1).
  void set_balancer(MdsRank rank, std::unique_ptr<Balancer> b);

  /// Factory used by set_balancer_all to give each node its own instance.
  using BalancerFactory = std::function<std::unique_ptr<Balancer>(MdsRank)>;
  void set_balancer_all(const BalancerFactory& factory);

  /// Kick off periodic balancer ticks (call once before running the engine).
  void start();

  /// Deliver replies to whoever owns the clients.
  void set_reply_handler(std::function<void(const Reply&)> cb) {
    reply_cb_ = std::move(cb);
  }

  /// Client entry point: send a request toward `guess` (the client's
  /// cached authority); the cluster applies network latency. Requests
  /// addressed to a down rank are dropped on delivery (dead host) — the
  /// client's retry timer is what recovers them.
  void client_submit(Request r, MdsRank guess);

  /// Batched client entry point: one network event carries a whole batch
  /// of requests toward the same guessed rank, instead of one engine
  /// event per request. Arrival order at the MDS is the batch order.
  /// Used by ClientPopulation aggregates, whose per-tick arrival counts
  /// would otherwise dominate the event queue at 1M modeled clients.
  void client_submit_batch(MdsRank guess, std::vector<Request> batch);

  // -- Liveness / fault handling ----------------------------------------------
  /// Is this rank serving? (false while down or replaying its journal).
  bool is_up(MdsRank rank) const;
  /// Is this rank mid-replay (restarted, not yet serving)?
  bool is_replaying(MdsRank rank) const;
  int num_up() const;

  /// How many times this rank has crashed (its incarnation number). New
  /// heartbeats carry it; the stale guard rejects payloads from older
  /// incarnations.
  std::uint64_t crash_epoch(MdsRank rank) const;

  /// Lowest up rank != avoid (else lowest up rank, else 0): where a client
  /// re-aims a timed-out request, standing in for the MDSMap it would get
  /// from the monitors.
  MdsRank pick_up_rank(MdsRank avoid) const;

  /// Kill an MDS: its queue and in-service request are lost, in-flight
  /// migrations it participates in abort (rollback + deferred-request
  /// re-injection), and — with takeover_on_crash — the lowest surviving
  /// rank replays its journal and adopts its auth subtrees. Returns false
  /// if the rank was already down.
  bool crash_mds(MdsRank rank);

  /// Bring a crashed MDS back: it replays its own journal (time
  /// proportional to live entries) and then rejoins heartbeating and
  /// balancing with whatever subtrees it still owns. Returns false if the
  /// rank was not down.
  bool restart_mds(MdsRank rank);

  /// Install probabilistic network faults (heartbeat drop/dup/delay).
  /// Caller keeps ownership; pass nullptr to disable.
  void set_network_faults(NetworkFaults* nf) { net_faults_ = nf; }
  NetworkFaults* network_faults() const { return net_faults_; }

  // -- Authority / subtree map -------------------------------------------------
  MdsRank auth_of(const DirFragId& id) const;
  const std::map<DirFragId, MdsRank>& subtree_roots() const { return subtree_roots_; }

  /// Subtree roots owned by one rank.
  std::vector<DirFragId> roots_of(MdsRank rank) const;

  /// True if `outer` is an ancestor-or-equal dirfrag of `inner` (i.e. the
  /// path from inner up to the root passes through outer).
  bool frag_contains(const DirFragId& outer, const DirFragId& inner) const;

  /// A dirfrag is frozen while a migration that covers it is in flight.
  bool is_frozen(const DirFragId& id) const;

  /// Aggregate popularity of the auth-subtree rooted at `root` counting
  /// only fragments owned by `rank` (kNoRank = count everything).
  PopSnapshot subtree_pop(const DirFragId& root, MdsRank rank, Time now) const;

  /// Dentries in the subtree hanging below `root` (same rank filter).
  std::size_t subtree_entry_count(const DirFragId& root, MdsRank rank) const;

  /// Start a two-phase-commit export of `frag` from its current authority
  /// to `to`. No-op if already owned by `to`, frozen, or invalid. The
  /// migration gets its own causal span; `parent_span` links it to the
  /// balancer-tick decision that ordered it (kNoSpan for manual exports).
  bool export_subtree(const DirFragId& frag, MdsRank to,
                      obs::SpanId parent_span = obs::kNoSpan);

  /// Forward a request to another MDS (one network hop).
  void route_to(MdsRank rank, Request r);

  /// Park a request on the in-flight migration covering `id`; it is
  /// re-injected at the importer when the migration commits.
  void defer_to_migration(const DirFragId& id, Request r);

  /// Split a dirfrag that crossed the size threshold (GIGA+-style
  /// mechanism; policy is just the threshold in the config).
  void maybe_split(const DirFragId& id);

  /// Merge a shrunken fragmented directory back into a single fragment.
  /// Only possible when every fragment has the same authority (CephFS
  /// cannot merge across an auth boundary) and none is mid-migration.
  /// Returns true if a merge happened.
  bool maybe_merge(InodeId dir);

  /// Write back dirty dirfrags owned by `rank` (bumps STORE pops).
  void flush_dirty(MdsRank rank);

  /// Flush the client sessions attached to two ranks (metadata moved
  /// between them: migration commit or a cross-MDS "slave" rename). Each
  /// affected client stalls for session_flush_stall. Returns the number
  /// of sessions flushed.
  std::size_t flush_client_sessions(MdsRank a, MdsRank b);

  /// Hand the subtree rooted at `dir` from one authority to another
  /// (directory renamed across an auth boundary: it follows its new
  /// parent). Nested foreign bounds keep their owners.
  void reparent_subtree(InodeId dir, MdsRank from, MdsRank to);

  /// Build the export-candidate pool for `rank` against a target load,
  /// drilling into candidates too hot to move whole (paper: "subtrees are
  /// divided and migrated only if their ancestors are too popular").
  /// Sorted by descending load; frozen and foreign fragments excluded.
  /// This is a one-shot CandidateCache (candidate_cache.hpp); a balancer
  /// tick keeps one cache for all of its targets, so the walks run once
  /// per tick rather than once per target, with identical pools.
  std::vector<ExportCandidate> gather_candidates(MdsRank rank, double target,
                                                 Balancer& policy, Time now);

  // -- Introspection -----------------------------------------------------------
  /// In-flight 2PC exports (records with finished == 0). The chaos
  /// invariant checker asserts both ends of every active migration are
  /// alive (no orphaned export state survives a crash).
  std::vector<MigrationRecord> active_migration_records() const;
  std::size_t active_migration_count() const { return active_migrations_.size(); }
  /// Requests currently parked on down subtrees (must drain at quiesce).
  std::size_t dead_letter_size() const { return dead_letter_.size(); }
  /// Heartbeats rejected by the stale-epoch/ordering guard.
  std::uint64_t stale_heartbeats_rejected() const { return hb_stale_rejected_; }
  const std::vector<MigrationRecord>& migrations() const { return migrations_; }
  /// Exports that aborted mid-2PC because one end died (finished = abort time).
  const std::vector<MigrationRecord>& aborted_migrations() const {
    return aborted_migrations_;
  }
  /// Crash/takeover/replay events in order (see RecoveryEvent).
  const std::vector<RecoveryEvent>& recovery_log() const { return recovery_log_; }
  /// Requests lost to dead ranks (dropped queues + dead-host deliveries).
  std::uint64_t requests_dropped() const { return requests_dropped_; }
  std::uint64_t total_sessions_flushed() const { return sessions_flushed_; }
  std::uint64_t total_forwards() const;
  std::uint64_t total_hits() const;
  std::uint64_t total_completed() const;

  /// Per-rank count of dentries currently under its authority.
  std::vector<std::size_t> auth_entry_counts() const;

  /// Dentries under one rank's authority. The heartbeat path uses this:
  /// walking only the caller's subtrees keeps a 512-rank cluster's
  /// per-interval measurement cost at one namespace sweep total, not one
  /// per rank.
  std::size_t auth_entry_count(MdsRank rank) const;

 private:
  friend class MdsNode;

  struct ActiveMigration {
    MigrationRecord rec;
    std::vector<Request> deferred;
    obs::SpanId span = obs::kNoSpan;  // start/commit/abort share it
  };

  enum class NodeLife { Up, Down, Replaying };

  void deliver_reply(Reply rep);
  void note_session(MdsRank rank, int client);
  void finish_migration(std::size_t idx);
  void schedule_tick(MdsRank rank);
  void abort_migrations_of(MdsRank dead);
  /// Tear down one active migration (2PC abort): journal the abort on the
  /// surviving end(s), re-route deferred requests, log the recovery
  /// event. `dead` = kNoRank for a watchdog (stuck-export) abort where
  /// both ends are still alive.
  void abort_migration(std::size_t id, MdsRank dead, const char* reason);
  /// Re-attempt an aborted export after exponential backoff, bounded by
  /// export_retry_max per subtree.
  void schedule_export_retry(const DirFragId& frag, MdsRank to);
  /// Flip every frag of `rank`'s subtrees (and the subtree map) to `to`,
  /// charging FETCH heat on the adopter. Used by takeover.
  void adopt_subtrees(MdsRank from, MdsRank to);
  /// Re-inject parked requests whose current authority is up again.
  void flush_dead_letters();
  /// Route toward the authority of `frag`, parking in the dead-letter
  /// queue if that rank is down (re-injected when it recovers).
  void route_or_park(const DirFragId& frag, Request r);
  Time replay_duration(MdsRank rank) const;
  /// `span` overrides the trace span of the mirrored trace event (used by
  /// migration aborts, which belong to the migration's span); kNoSpan
  /// falls back to the rank's current crash-recovery span.
  void log_recovery(RecoveryEvent::Kind kind, MdsRank rank, MdsRank peer,
                    std::uint64_t detail, obs::SpanId span = obs::kNoSpan);

  sim::Engine& engine_;
  ClusterConfig cfg_;
  Rng rng_;
  mantle::mds::Namespace ns_;
  store::ObjectStore store_;
  obs::MetricsRegistry metrics_;
  obs::TraceSink trace_;
  obs::ProvenanceRecorder provenance_;
  ClusterMetrics om_;  // cached handles into metrics_ (must follow it)
  std::vector<std::unique_ptr<MdsNode>> nodes_;
  std::vector<std::unique_ptr<store::Journal>> journals_;

  std::map<DirFragId, MdsRank> subtree_roots_;
  std::map<std::size_t, ActiveMigration> active_migrations_;  // by id
  std::size_t next_migration_id_ = 0;
  std::vector<MigrationRecord> migrations_;
  std::vector<MigrationRecord> aborted_migrations_;
  /// Crash-abort retry accounting per subtree (cleared on commit). The
  /// backoff jitter draws from a dedicated stream derived from the seed,
  /// so arming retries never perturbs the main rng's event sequence.
  std::map<DirFragId, int> export_retry_attempts_;
  Rng retry_rng_;
  std::uint64_t hb_stale_rejected_ = 0;

  std::vector<SessionTable> sessions_;     // per-rank client sessions (dense)
  std::vector<Time> client_stall_until_;   // session-flush stall, by client id
  /// Scratch for flush_client_sessions' two-rank union: ids stamped with
  /// the current generation are already counted in this flush.
  std::vector<std::uint64_t> flush_mark_;
  std::uint64_t flush_gen_ = 0;
  std::uint64_t sessions_flushed_ = 0;

  // -- fault state -------------------------------------------------------------
  std::vector<NodeLife> life_;
  std::vector<std::uint64_t> crash_epoch_;  // guards stale takeover timers
  /// Per-rank span of the current crash→takeover→replay episode; the
  /// whole recovery sequence of one crash shares it.
  std::vector<obs::SpanId> recovery_span_;
  std::vector<std::pair<DirFragId, Request>> dead_letter_;
  std::vector<RecoveryEvent> recovery_log_;
  std::uint64_t requests_dropped_ = 0;
  NetworkFaults* net_faults_ = nullptr;

  std::function<void(const Reply&)> reply_cb_;
};

}  // namespace mantle::cluster

#pragma once

#include <map>
#include <memory>

#include "common/stats.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

/// \file client.hpp
/// A closed-loop metadata client: one outstanding request, a think time
/// between requests, and a cached map of directory -> authoritative MDS
/// learned from replies (the paper: "as the client receives responses
/// from MDS nodes, it builds up its own mapping of subtrees to MDS
/// nodes"). Stale cache entries after a migration produce forwards.

namespace mantle::sim {

/// Client-side fault tolerance: when an MDS dies holding a request, the
/// reply never comes. With a timeout set, the client resubmits toward a
/// surviving rank with capped exponential backoff until a reply
/// resolves the op. Semantics are
/// at-least-once: a retried mutation may have been applied by a previous
/// attempt, so a "failed" (e.g. already-exists) reply to a retry still
/// counts the op as completed. Disabled by default (timeout = 0) so
/// existing experiments keep their exact event sequences.
struct RetryPolicy {
  Time timeout = 0;               // 0 disables retries entirely
  Time max_backoff = 8 * kSec;    // backoff doubles per retry up to this
};

class Client {
 public:
  Client(int id, cluster::MdsCluster& cluster, std::unique_ptr<Workload> wl,
         Rng rng, RetryPolicy retry = {});

  int id() const { return id_; }

  /// Issue the first request (call after the cluster reply handler is set).
  void start();

  /// Scenario routes replies here by client id.
  void on_reply(const cluster::Reply& rep);

  bool done() const { return done_; }
  Time started_at() const { return started_at_; }
  Time finished_at() const { return finished_at_; }
  /// Wall-clock of the client's run. Before done() this is the elapsed
  /// time so far (never the old `0 - started_at_` unsigned underflow,
  /// which poisoned scenario aggregates when a run hit its horizon);
  /// before start() it is 0.
  Time runtime() const;

  std::uint64_t ops_completed() const { return ops_completed_; }
  std::uint64_t ops_failed() const { return ops_failed_; }
  std::uint64_t forwards_seen() const { return forwards_seen_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t stale_replies() const { return stale_replies_; }

  /// Per-request latency distribution in milliseconds. Reservoir-backed:
  /// count/mean/stddev are exact, percentiles come from a bounded sample,
  /// so memory no longer grows linearly with ops on million-op runs.
  const mantle::ReservoirSample& latencies_ms() const { return latencies_; }

 private:
  void issue_next();
  void submit(cluster::Request r, mantle::mds::MdsRank guess);
  void arm_timeout();
  void finish_op(bool ok, Time started);

  int id_;
  cluster::MdsCluster& cluster_;
  std::unique_ptr<Workload> workload_;
  Rng rng_;
  RetryPolicy retry_;

  // Retry state for the (single) outstanding logical op. The armed
  // timeout is cancelled when the op resolves.
  cluster::Request pending_;
  std::uint64_t inflight_id_ = 0;
  EventId timer_;
  mantle::mds::MdsRank last_guess_ = 0;
  Time backoff_ = 0;
  int attempt_ = 0;
  bool waiting_ = false;
  std::uint64_t retries_ = 0;
  std::uint64_t stale_replies_ = 0;

  // Learned dirfrag -> MDS map (CephFS clients build "their own mapping
  // of subtrees to MDS nodes" from replies, at fragment granularity).
  std::map<mantle::mds::DirFragId, mantle::mds::MdsRank> auth_cache_;
  std::uint64_t next_req_id_ = 1;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t ops_failed_ = 0;
  std::uint64_t forwards_seen_ = 0;
  bool done_ = false;
  bool started_ = false;
  Time started_at_ = 0;
  Time finished_at_ = 0;
  mantle::ReservoirSample latencies_;
};

}  // namespace mantle::sim

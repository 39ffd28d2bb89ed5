#include "sim/client.hpp"

namespace mantle::sim {

using cluster::Reply;
using cluster::Request;
using mantle::mds::kNoInode;
using mantle::mds::MdsRank;

namespace {
bool is_mutation(cluster::OpType op) {
  switch (op) {
    case cluster::OpType::Create:
    case cluster::OpType::Mkdir:
    case cluster::OpType::Unlink:
    case cluster::OpType::Rename:
      return true;
    default:
      return false;
  }
}
}  // namespace

Client::Client(int id, cluster::MdsCluster& cluster,
               std::unique_ptr<Workload> wl, Rng rng, RetryPolicy retry)
    : id_(id), cluster_(cluster), workload_(std::move(wl)), rng_(rng),
      retry_(retry),
      // The reservoir's eviction stream is derived from the id alone, not
      // drawn from rng_, so adding it left every workload event sequence
      // bit-identical.
      latencies_(mantle::ReservoirSample::kDefaultCapacity,
                 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id) + 1)) {}

Time Client::runtime() const {
  if (!started_) return 0;
  const Time end = done_ ? finished_at_ : cluster_.engine().now();
  return end > started_at_ ? end - started_at_ : 0;
}

void Client::start() {
  if (started_) return;
  started_ = true;
  started_at_ = cluster_.engine().now();
  issue_next();
}

void Client::issue_next() {
  std::optional<WorkOp> op = workload_->next(rng_);
  if (!op) {
    done_ = true;
    finished_at_ = cluster_.engine().now();
    return;
  }

  const auto res = cluster_.ns().resolve(op->dir_path);
  if (!res.found || !res.is_dir) {
    // The target directory does not exist (workload ordering bug or a
    // failed earlier mkdir): count it and move on without a round trip.
    ++ops_failed_;
    cluster_.engine().schedule_after(1, [this]() { issue_next(); });
    return;
  }

  Request r;
  r.id = next_req_id_++;
  r.client = id_;
  r.op = op->op;
  r.dir = res.ino;
  r.name = op->name;
  // Root causal span for the op: forwards carry the same Request, and
  // retries copy pending_, so the span survives both under fresh req ids.
  r.span = cluster_.trace().next_span();
  r.issued_at = cluster_.engine().now();

  if (op->op == cluster::OpType::Rename) {
    const auto dst = cluster_.ns().resolve(op->dst_dir_path);
    if (!dst.found || !dst.is_dir) {
      ++ops_failed_;
      cluster_.engine().schedule_after(1, [this]() { issue_next(); });
      return;
    }
    r.dst_dir = dst.ino;
    r.dst_name = op->dst_name;
  }

  // Route by the learned fragment map: the client hashes the dentry name
  // into the directory's fragtree (which it caches) and sends to the MDS
  // it last saw serve that fragment.
  const mantle::mds::DirFragId frag =
      r.name.empty()
          ? mantle::mds::DirFragId{res.ino, {}}
          : cluster_.ns().frag_of(res.ino, r.name);
  auto it = auth_cache_.find(frag);
  if (it == auth_cache_.end()) {
    // Unknown fragment (e.g. freshly split): fall back to any entry for
    // the same directory, else to mds0.
    it = auth_cache_.lower_bound({res.ino, {}});
    if (it == auth_cache_.end() || it->first.ino != res.ino)
      it = auth_cache_.end();
  }
  const MdsRank guess = it == auth_cache_.end() ? 0 : it->second;
  submit(std::move(r), guess);
}

void Client::submit(Request r, MdsRank guess) {
  if (retry_.timeout > 0) {
    pending_ = r;
    inflight_id_ = r.id;
    last_guess_ = guess;
    attempt_ = 1;
    backoff_ = retry_.timeout;
    waiting_ = true;
    arm_timeout();
  }
  cluster_.client_submit(std::move(r), guess);
}

void Client::arm_timeout() {
  timer_ = cluster_.engine().schedule_after(backoff_, [this]() {
    // Resubmit under a fresh request id toward a rank believed up — the
    // old id keeps any late reply from the first attempt recognizable as
    // a stale duplicate. Standing in for the client re-reading the MDSMap.
    ++retries_;
    ++attempt_;
    Request r = pending_;
    r.id = next_req_id_++;
    r.hops = 0;
    inflight_id_ = r.id;
    if (!cluster_.is_up(last_guess_))
      last_guess_ = cluster_.pick_up_rank(last_guess_);
    backoff_ = std::min(backoff_ * 2, retry_.max_backoff);
    cluster_.client_submit(std::move(r), last_guess_);
    arm_timeout();
  });
}

void Client::finish_op(bool ok, Time started) {
  const Time now = cluster_.engine().now();
  latencies_.add(to_seconds(now - started) * 1e3);
  if (ok)
    ++ops_completed_;
  else
    ++ops_failed_;
  const Time think = workload_->think_time(rng_);
  if (think == 0) {
    issue_next();
  } else {
    cluster_.engine().schedule_after(think, [this]() { issue_next(); });
  }
}

void Client::on_reply(const Reply& rep) {
  forwards_seen_ += static_cast<std::uint64_t>(rep.hops);
  if (rep.dir != kNoInode)
    auth_cache_[{rep.dir, rep.frag}] = rep.served_by;

  if (retry_.timeout > 0) {
    if (!waiting_ || rep.req_id != inflight_id_) {
      // A superseded attempt completed after we had already retried (or
      // after the op resolved): at-least-once, drop the duplicate.
      ++stale_replies_;
      return;
    }
    waiting_ = false;
    cluster_.engine().cancel(timer_);
    // A retried mutation can fail only because an earlier attempt already
    // applied it (e.g. create -> already exists); that is a success.
    const bool ok = rep.ok || (attempt_ > 1 && is_mutation(pending_.op));
    finish_op(ok, pending_.issued_at);
    return;
  }

  finish_op(rep.ok, rep.issued_at);
}

}  // namespace mantle::sim

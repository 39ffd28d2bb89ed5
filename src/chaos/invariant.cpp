#include "chaos/invariant.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mantle::chaos {

namespace {

using mantle::mds::DirFragId;
using mantle::mds::MdsRank;
using mantle::mds::MetaOp;

/// Collecting more than this per run is noise: the runner only reports
/// the first violation and the shrinker only needs "still failing".
constexpr std::size_t kMaxViolations = 16;

constexpr MetaOp kAllOps[] = {MetaOp::IRD, MetaOp::IWR, MetaOp::READDIR,
                              MetaOp::FETCH, MetaOp::STORE};

const char* meta_op_name(MetaOp op) {
  switch (op) {
    case MetaOp::IRD: return "ird";
    case MetaOp::IWR: return "iwr";
    case MetaOp::READDIR: return "readdir";
    case MetaOp::FETCH: return "fetch";
    case MetaOp::STORE: return "store";
  }
  return "?";
}

}  // namespace

InvariantChecker::InvariantChecker(cluster::MdsCluster& c) : c_(c) {
  const auto n = static_cast<std::size_t>(c.num_mds());
  last_hb_.assign(n, std::vector<std::pair<std::uint64_t, Time>>(n, {0, 0}));
  observer_epoch_.assign(n, 0);
}

void InvariantChecker::fail(Time now, const char* invariant,
                            std::string detail) {
  if (violations_.size() >= kMaxViolations) return;
  c_.trace().event(now, obs::EventKind::InvariantViolation, -1, -1,
                   std::string(invariant) + ": " + detail);
  violations_.push_back({now, invariant, std::move(detail)});
}

void InvariantChecker::check_tick(Time now) {
  check_cover(now);
  check_migrations(now);
  check_heartbeats(now);
  check_heat(now);
}

void InvariantChecker::check_quiesce(Time now) {
  check_tick(now);

  ++checks_;
  for (MdsRank r = 0; r < c_.num_mds(); ++r) {
    if (!c_.is_up(r))
      fail(now, "quiesce-rank-down",
           "rank " + std::to_string(r) + " not serving after quiesce");
  }
  ++checks_;
  if (c_.active_migration_count() != 0) {
    std::string detail;
    for (const auto& m : c_.active_migration_records())
      detail += m.frag.str() + " " + std::to_string(m.from) + "->" +
                std::to_string(m.to) + " ";
    fail(now, "quiesce-migration-open",
         std::to_string(c_.active_migration_count()) +
             " exports still in flight: " + detail);
  }
  ++checks_;
  if (c_.dead_letter_size() != 0)
    fail(now, "dead-letter-stuck",
         std::to_string(c_.dead_letter_size()) +
             " requests still parked after every rank recovered");
}

void InvariantChecker::check_cover(Time now) {
  const auto& ns = c_.ns();
  const auto& roots = c_.subtree_roots();

  // Every subtree root must name a live dirfrag owned by a valid rank.
  ++checks_;
  for (const auto& [rf, rank] : roots) {
    if (ns.frag(rf) == nullptr)
      fail(now, "dangling-subtree-root", "root " + rf.str() + " has no frag");
    if (rank < 0 || rank >= c_.num_mds())
      fail(now, "dangling-subtree-root",
           "root " + rf.str() + " owned by invalid rank " +
               std::to_string(rank));
  }

  // Walk every directory reachable from the root. Orphaned directories
  // (present in the namespace but unreachable) are lost metadata. The walk
  // follows the per-frag directory indexes, so a directory an index lost
  // shows up here too.
  const auto dirs = ns.subtree_dirs(ns.root());
  ++checks_;
  if (dirs.size() != ns.num_dirs())
    fail(now, "namespace-disconnected",
         std::to_string(ns.num_dirs() - dirs.size()) +
             " directories unreachable from the root");

  for (const auto ino : dirs) {
    const auto* d = ns.dir(ino);
    if (d == nullptr) continue;

    // The directory's fragments must tile the 32-bit hash space exactly:
    // sorted by prefix value, each starts where the previous ended.
    ++checks_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;  // [start, end)
    spans.reserve(d->frags.size());
    for (const auto& [f, df] : d->frags)
      spans.emplace_back(f.value(),
                         static_cast<std::uint64_t>(f.value()) +
                             (std::uint64_t{1} << (32 - f.bits())));
    std::sort(spans.begin(), spans.end());
    std::uint64_t expect = 0;
    bool tiled = true;
    for (const auto& [lo, hi] : spans) {
      if (lo != expect) {
        tiled = false;
        break;
      }
      expect = hi;
    }
    if (!tiled || expect != (std::uint64_t{1} << 32))
      fail(now, "dirfrag-partition",
           "dir " + std::to_string(ino) + " fragments do not tile the hash " +
               "space (" + std::to_string(d->frags.size()) + " frags)");

    // Auth-unique cover: the innermost subtree root containing each frag
    // decides its authority, and the frag's own annotation must agree.
    // Frags under an in-flight 2PC export are mid-handover — the subtree
    // map and the annotation legitimately disagree until commit/abort —
    // so they are asserted via migration liveness instead.
    for (const auto& [f, df] : d->frags) {
      ++checks_;
      const DirFragId id{ino, f};
      if (c_.is_frozen(id)) continue;
      bool found = false;
      DirFragId inner;
      for (const auto& [rf, rank] : roots) {
        if (!c_.frag_contains(rf, id)) continue;
        // Containing roots are nested, so "contained by the current
        // innermost" picks the unique deepest one.
        if (!found || c_.frag_contains(inner, rf)) inner = rf;
        found = true;
      }
      if (!found) {
        fail(now, "uncovered-dirfrag",
             "frag " + id.str() + " is covered by no subtree root");
        continue;
      }
      const MdsRank expected = roots.at(inner);
      const MdsRank actual = df.auth == mds::kNoRank ? 0 : df.auth;
      if (actual != expected)
        fail(now, "auth-mismatch",
             "frag " + id.str() + " auth=" + std::to_string(actual) +
                 " but innermost root " + inner.str() + " is owned by " +
                 std::to_string(expected));
    }
  }
}

void InvariantChecker::check_migrations(Time now) {
  ++checks_;
  for (const auto& m : c_.active_migration_records()) {
    // A crash aborts the migrations of the dead rank in the same event,
    // so an in-flight export with a dead end is orphaned 2PC state.
    if (!c_.is_up(m.from) && !c_.is_replaying(m.from))
      fail(now, "orphaned-migration",
           "export " + m.frag.str() + " " + std::to_string(m.from) + "->" +
               std::to_string(m.to) + " has a dead exporter");
    if (!c_.is_up(m.to) && !c_.is_replaying(m.to))
      fail(now, "orphaned-migration",
           "export " + m.frag.str() + " " + std::to_string(m.from) + "->" +
               std::to_string(m.to) + " has a dead importer");
  }
}

void InvariantChecker::check_heartbeats(Time now) {
  for (MdsRank o = 0; o < c_.num_mds(); ++o) {
    const auto oi = static_cast<std::size_t>(o);
    const auto& hb = c_.node(o).heartbeats();
    // An observer that crashed since the last poll gets fresh baselines:
    // its stored table may have been rebuilt.
    if (observer_epoch_[oi] != c_.crash_epoch(o)) {
      observer_epoch_[oi] = c_.crash_epoch(o);
      for (auto& p : last_hb_[oi]) p = {0, 0};
    }
    for (MdsRank s = 0; s < c_.num_mds(); ++s) {
      if (s == o) continue;
      const auto si = static_cast<std::size_t>(s);
      const auto& cur = hb[si];
      auto& last = last_hb_[oi][si];
      ++checks_;
      if (cur.epoch < last.first ||
          (cur.epoch == last.first && cur.sent_at < last.second)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "mds%d's view of mds%d regressed: epoch %llu@%llu -> "
                      "%llu@%llu",
                      o, s, static_cast<unsigned long long>(last.first),
                      static_cast<unsigned long long>(last.second),
                      static_cast<unsigned long long>(cur.epoch),
                      static_cast<unsigned long long>(cur.sent_at));
        fail(now, "hb-regressed", buf);
      }
      ++checks_;
      if (cur.epoch > c_.crash_epoch(s)) {
        fail(now, "hb-epoch-future",
             "mds" + std::to_string(o) + " holds epoch " +
                 std::to_string(cur.epoch) + " from mds" + std::to_string(s) +
                 " whose incarnation is " +
                 std::to_string(c_.crash_epoch(s)));
      }
      last = {cur.epoch, cur.sent_at};
    }
  }
}

void InvariantChecker::check_heat(Time now) {
  const auto& ns = c_.ns();
  const auto dirs = ns.subtree_dirs(ns.root());
  const auto& rate = ns.decay_rate();
  for (const MetaOp op : kAllOps) {
    ++checks_;
    double frag_sum = 0.0;
    for (const auto ino : dirs) {
      const auto* d = ns.dir(ino);
      if (d == nullptr) continue;
      for (const auto& [f, df] : d->frags) frag_sum += df.pop.get(op, now, rate);
    }
    const double nested = ns.nested_pop(ns.root(), op, now);
    // Linear decay + proportional split/merge conserve heat exactly in
    // real arithmetic; the tolerance only absorbs floating-point error.
    const double tol = 1e-6 * std::max(1.0, std::abs(nested));
    if (std::abs(frag_sum - nested) > tol) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "%s heat: sum(frags)=%.9g but nested(root)=%.9g",
                    meta_op_name(op), frag_sum, nested);
      fail(now, "heat-not-conserved", buf);
    }
  }
}

}  // namespace mantle::chaos

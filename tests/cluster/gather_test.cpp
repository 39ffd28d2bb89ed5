#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>

#include "balancers/builtin.hpp"
#include "cluster/candidate_cache.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"

/// Tests for the namespace-partitioning mechanism: export-candidate
/// gathering with drill-down ("subtrees are divided and migrated only if
/// their ancestors are too popular to migrate", §3.2), and the namespace
/// walks behind it against the full dentry scan they replaced.

namespace mantle::cluster {
namespace {

using mantle::mds::frag_t;
using mantle::mds::InodeId;
using mantle::mds::kNoInode;
using mantle::mds::kNoRank;
using mantle::mds::MetaOp;

struct Harness {
  sim::Engine engine;
  MdsCluster cluster;
  balancers::AdaptableBalancer policy;  // metaload = IWR + IRD

  explicit Harness(int num_mds = 2) : cluster(engine, [&] {
    ClusterConfig cfg;
    cfg.num_mds = num_mds;
    return cfg;
  }()) {
    cluster.set_reply_handler([](const Reply&) {});
  }

  InodeId mkdir(InodeId parent, const std::string& name) {
    return cluster.ns().mkdir(parent, name, engine.now());
  }

  void heat(InodeId dir, const std::string& name, int hits) {
    const auto id = cluster.ns().frag_of(dir, name);
    for (int i = 0; i < hits; ++i)
      cluster.ns().record_op(id, MetaOp::IWR, engine.now());
  }
};

TEST(Gather, RootAloneWhenCold) {
  Harness h;
  const auto pool = h.cluster.gather_candidates(0, 100.0, h.policy, 0);
  // Nothing hot and nothing below the root: pool is empty or negligible.
  double total = 0.0;
  for (const auto& c : pool) total += c.load;
  EXPECT_DOUBLE_EQ(total, 0.0);
}

TEST(Gather, DrillsIntoHotRoot) {
  Harness h;
  const InodeId a = h.mkdir(h.cluster.ns().root(), "a");
  const InodeId b = h.mkdir(h.cluster.ns().root(), "b");
  h.cluster.ns().create(a, "fa", 0);
  h.cluster.ns().create(b, "fb", 0);
  h.heat(a, "fa", 60);
  h.heat(b, "fb", 40);

  // Target 50 out of ~100 total: the root (load ~100) is too big to ship
  // whole, so the pool must contain the child subtrees instead.
  const auto pool = h.cluster.gather_candidates(0, 50.0, h.policy, h.engine.now());
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0].frag.ino, a);  // sorted by descending load
  EXPECT_EQ(pool[1].frag.ino, b);
  EXPECT_NEAR(pool[0].load, 60.0, 1.0);
  EXPECT_NEAR(pool[1].load, 40.0, 1.0);
  EXPECT_EQ(pool[0].entries, 1u);
}

TEST(Gather, KeepsWholeSubtreeWhenItFitsTheTarget) {
  Harness h;
  const InodeId a = h.mkdir(h.cluster.ns().root(), "a");
  const InodeId deep = h.mkdir(a, "deep");
  h.cluster.ns().create(deep, "f", 0);
  h.heat(deep, "f", 30);
  const InodeId b = h.mkdir(h.cluster.ns().root(), "b");
  h.cluster.ns().create(b, "g", 0);
  h.heat(b, "g", 25);

  // Root load ~55 exceeds the target (35) and drills; both children fit
  // whole, so /a is offered as one candidate with its nested subtree —
  // no needless descent into /a/deep.
  const auto pool = h.cluster.gather_candidates(0, 35.0, h.policy, h.engine.now());
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0].frag.ino, a);
  EXPECT_NEAR(pool[0].load, 30.0, 1.0);
  EXPECT_EQ(pool[0].entries, 2u);  // "deep" + "f"
  EXPECT_EQ(pool[1].frag.ino, b);
}

TEST(Gather, HotFlatDirectoryIsExportableAsIs) {
  Harness h;
  const InodeId hot = h.mkdir(h.cluster.ns().root(), "hot");
  for (int i = 0; i < 20; ++i) {
    h.cluster.ns().create(hot, "f" + std::to_string(i), 0);
    h.heat(hot, "f" + std::to_string(i), 10);
  }
  // Target far below the flat directory's load: nothing to drill into
  // (no subdirectories), so the dirfrag itself stays in the pool.
  const auto pool = h.cluster.gather_candidates(0, 10.0, h.policy, h.engine.now());
  ASSERT_FALSE(pool.empty());
  EXPECT_EQ(pool[0].frag.ino, hot);
  EXPECT_NEAR(pool[0].load, 200.0, 2.0);
}

TEST(Gather, SkipsFrozenSubtrees) {
  Harness h;
  const InodeId a = h.mkdir(h.cluster.ns().root(), "a");
  const InodeId b = h.mkdir(h.cluster.ns().root(), "b");
  h.cluster.ns().create(a, "fa", 0);
  h.cluster.ns().create(b, "fb", 0);
  h.heat(a, "fa", 50);
  h.heat(b, "fb", 50);
  // Freeze /a by starting its migration.
  ASSERT_TRUE(h.cluster.export_subtree({a, frag_t()}, 1));
  const auto pool = h.cluster.gather_candidates(0, 40.0, h.policy, h.engine.now());
  for (const auto& c : pool) EXPECT_NE(c.frag.ino, a);
}

TEST(Gather, ExcludesForeignSubtrees) {
  Harness h;
  const InodeId a = h.mkdir(h.cluster.ns().root(), "a");
  const InodeId b = h.mkdir(h.cluster.ns().root(), "b");
  h.cluster.ns().create(a, "fa", 0);
  h.cluster.ns().create(b, "fb", 0);
  ASSERT_TRUE(h.cluster.export_subtree({b, frag_t()}, 1));
  h.engine.run();
  h.heat(a, "fa", 50);
  h.heat(b, "fb", 50);
  // Rank 0's candidates never include rank 1's subtree /b.
  const auto pool = h.cluster.gather_candidates(0, 40.0, h.policy, h.engine.now());
  for (const auto& c : pool) EXPECT_NE(c.frag.ino, b);
  // And rank 1's pool is exactly /b.
  const auto pool1 = h.cluster.gather_candidates(1, 40.0, h.policy, h.engine.now());
  ASSERT_FALSE(pool1.empty());
  EXPECT_EQ(pool1[0].frag.ino, b);
}

TEST(Gather, DrillDepthIsBounded) {
  Harness h;
  // A pathological 12-deep chain of hot directories.
  InodeId cur = h.cluster.ns().root();
  for (int i = 0; i < 12; ++i) cur = h.mkdir(cur, "lvl" + std::to_string(i));
  h.cluster.ns().create(cur, "leaf", 0);
  h.heat(cur, "leaf", 100);
  // Tiny target forces drilling at every level; the bound stops it.
  const auto pool = h.cluster.gather_candidates(0, 0.5, h.policy, h.engine.now());
  ASSERT_FALSE(pool.empty());  // bounded drill still yields candidates
}


// ---------------------------------------------------------------------------
// CandidateCache against the per-call walk it replaced
// ---------------------------------------------------------------------------

/// A frag's dentries sorted by name. The dentries are hashed, so the
/// oracles below sort their scan: name order is the order the scan had
/// when dentries were an ordered map, and the order of the directory
/// index.
std::vector<std::pair<std::string, InodeId>> by_name(
    const mantle::mds::DirFrag& f) {
  std::vector<std::pair<std::string, InodeId>> out(f.dentries.begin(),
                                                   f.dentries.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Reference oracle: the gather walk as it ran before the tick-scoped
/// cache, one fresh walk per call. Every cached pool must equal it.
std::vector<ExportCandidate> reference_gather(const MdsCluster& c,
                                              MdsRank rank, double target,
                                              const Balancer& policy,
                                              Time now) {
  struct Item {
    ExportCandidate cand;
    bool drillable = true;
  };
  std::vector<Item> pool;
  auto add = [&](const DirFragId& id) {
    if (c.is_frozen(id)) return;
    Item item;
    item.cand.frag = id;
    item.cand.load = policy.metaload(c.subtree_pop(id, rank, now));
    item.cand.entries = c.subtree_entry_count(id, rank);
    pool.push_back(std::move(item));
  };
  for (const DirFragId& root : c.roots_of(rank)) add(root);

  const double too_big = target * c.config().too_big_factor;
  for (int depth = 0; depth < c.config().max_drill_depth; ++depth) {
    bool drilled = false;
    std::vector<Item> next;
    for (Item& item : pool) {
      if (!item.drillable || item.cand.load <= too_big) {
        next.push_back(std::move(item));
        continue;
      }
      const mantle::mds::DirFrag* f = c.ns().frag(item.cand.frag);
      if (f == nullptr) continue;
      std::vector<DirFragId> children;
      for (const auto& [name, ino] : by_name(*f)) {
        const mantle::mds::Dir* child = c.ns().dir(ino);
        if (child == nullptr) continue;
        for (const auto& [cf, cdf] : child->frags)
          if (cdf.auth == rank) children.push_back({ino, cf});
      }
      if (children.empty()) {
        item.drillable = false;
        next.push_back(std::move(item));
        continue;
      }
      drilled = true;
      for (const DirFragId& ch : children) {
        if (c.is_frozen(ch)) continue;
        Item ci;
        ci.cand.frag = ch;
        ci.cand.load = policy.metaload(c.subtree_pop(ch, rank, now));
        ci.cand.entries = c.subtree_entry_count(ch, rank);
        next.push_back(std::move(ci));
      }
    }
    pool = std::move(next);
    if (!drilled) break;
  }

  std::vector<ExportCandidate> out;
  for (Item& item : pool)
    if (item.cand.load > 0.0 || item.cand.entries > 0)
      out.push_back(std::move(item.cand));
  std::sort(out.begin(), out.end(),
            [](const ExportCandidate& a, const ExportCandidate& b) {
              if (a.load != b.load) return a.load > b.load;
              return a.frag < b.frag;
            });
  return out;
}

/// Forwards to a real policy and logs every metaload() input in call
/// order, so two gathers can be held to the same hook traffic.
class CountingBalancer final : public Balancer {
 public:
  explicit CountingBalancer(Balancer& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  double metaload(const PopSnapshot& pop) const override {
    calls.push_back(pop);
    return inner_.metaload(pop);
  }
  double mdsload(const HeartbeatPayload& hb) const override {
    return inner_.mdsload(hb);
  }
  bool when(const ClusterView& view) override { return inner_.when(view); }
  std::vector<double> where(const ClusterView& view) override {
    return inner_.where(view);
  }
  std::vector<std::string> howmuch() const override {
    return inner_.howmuch();
  }

  mutable std::vector<PopSnapshot> calls;

 private:
  Balancer& inner_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_pool(const std::vector<ExportCandidate>& want,
                      const std::vector<ExportCandidate>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].frag, got[i].frag) << "candidate " << i;
    EXPECT_EQ(bits(want[i].load), bits(got[i].load)) << "candidate " << i;
    EXPECT_EQ(want[i].entries, got[i].entries) << "candidate " << i;
  }
}

void expect_same_calls(const std::vector<PopSnapshot>& want,
                       const std::vector<PopSnapshot>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(bits(want[i].ird), bits(got[i].ird)) << "call " << i;
    EXPECT_EQ(bits(want[i].iwr), bits(got[i].iwr)) << "call " << i;
    EXPECT_EQ(bits(want[i].readdir), bits(got[i].readdir)) << "call " << i;
    EXPECT_EQ(bits(want[i].fetch), bits(got[i].fetch)) << "call " << i;
    EXPECT_EQ(bits(want[i].store), bits(got[i].store)) << "call " << i;
  }
}

/// Every dirfrag in the namespace, parents before children.
std::vector<DirFragId> all_frags(const MdsCluster& c) {
  std::vector<DirFragId> out;
  std::vector<InodeId> stack{c.ns().root()};
  while (!stack.empty()) {
    const InodeId ino = stack.back();
    stack.pop_back();
    const mantle::mds::Dir* d = c.ns().dir(ino);
    if (d == nullptr) continue;
    for (const auto& [f, df] : d->frags) {
      out.push_back({ino, f});
      for (const auto& [name, child] : df.dentries) stack.push_back(child);
    }
  }
  return out;
}

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& v) {
  return v[rng.uniform(0, v.size() - 1)];
}

/// A seeded random cluster: nested directories and files, files and
/// subdirectories interleaved by name in one directory, heat on every
/// MetaOp, split fragments, foreign bounds from committed exports, a
/// nested island root and a directory renamed across an authority bound.
/// Two worlds built from one seed are identical.
struct World {
  sim::Engine engine;
  MdsCluster cluster;

  explicit World(const ClusterConfig& cfg) : cluster(engine, cfg) {
    cluster.set_reply_handler([](const Reply&) {});
  }

  /// Fire every event up to `t` and leave the clock exactly there.
  void advance_to(Time t) {
    engine.schedule_at(t, [] {});
    engine.run_until(t);
  }

  void heat(Rng& rng) {
    for (const DirFragId& f : all_frags(cluster)) {
      if (rng.next_double() < 0.4) continue;
      for (int op = 0; op < mantle::mds::kNumMetaOps; ++op) {
        if (rng.next_double() < 0.5) continue;
        const auto hits = rng.uniform(1, 40);
        for (std::uint64_t i = 0; i < hits; ++i)
          cluster.ns().record_op(f, static_cast<MetaOp>(op), engine.now());
      }
    }
  }

  /// A directory rename whose source and destination dentries have
  /// different authorities.
  struct CrossRename {
    InodeId moving = kNoInode;
    InodeId src_dir = kNoInode;
    std::string src_name;
    InodeId dst_dir = kNoInode;
    std::string dst_name;
    MdsRank from = kNoRank;  // serves the rename
    MdsRank to = kNoRank;    // owns the destination dentry
  };

  /// Draw a directory whose first frag its source's authority owns, and a
  /// destination outside it where a fresh name lands on another rank.
  /// `moving` stays kNoInode when no such pair turns up.
  CrossRename plan_cross_rename(Rng& rng) {
    const auto& ns = cluster.ns();
    for (int attempt = 0; attempt < 40; ++attempt) {
      const InodeId moving = pick(rng, all_frags(cluster)).ino;
      const InodeId dst = pick(rng, all_frags(cluster)).ino;
      if (moving == ns.root() ||
          cluster.frag_contains({moving, frag_t()}, {dst, frag_t()}))
        continue;
      CrossRename r;
      r.moving = moving;
      r.src_dir = ns.inode(moving)->parent;
      r.src_name = ns.inode(moving)->name;
      r.dst_dir = dst;
      r.dst_name = "r" + std::to_string(renames_++);
      r.from = cluster.auth_of(ns.frag_of(r.src_dir, r.src_name));
      r.to = cluster.auth_of(ns.frag_of(dst, r.dst_name));
      if (r.from == r.to ||
          cluster.auth_of({moving, ns.dir(moving)->frags.begin()->first}) !=
              r.from)
        continue;
      return r;
    }
    return {};
  }

  /// Serve the rename through the request path: the source's authority
  /// renames and hands the moved subtree over (reparent_subtree).
  void rename(const CrossRename& r) {
    Request req;
    req.id = renames_;
    req.client = 0;
    req.op = OpType::Rename;
    req.dir = r.src_dir;
    req.name = r.src_name;
    req.dst_dir = r.dst_dir;
    req.dst_name = r.dst_name;
    req.issued_at = engine.now();
    cluster.client_submit(std::move(req), r.from);
    engine.run();
  }

  void build(Rng& rng) {
    auto& ns = cluster.ns();
    std::vector<InodeId> dirs{ns.root()};
    const auto ndirs = rng.uniform(8, 30);
    for (std::uint64_t i = 0; i < ndirs; ++i)
      dirs.push_back(
          ns.mkdir(pick(rng, dirs), "d" + std::to_string(i), engine.now()));
    // Files and subdirectories interleaved by name in one directory.
    const InodeId mixed = pick(rng, dirs);
    const auto nmixed = rng.uniform(4, 12);
    for (std::uint64_t i = 0; i < nmixed; ++i) {
      const std::string name = "m" + std::to_string(i);
      if (rng.next_double() < 0.5)
        dirs.push_back(ns.mkdir(mixed, name, engine.now()));
      else
        ns.create(mixed, name, engine.now());
    }
    const auto nfiles = rng.uniform(10, 80);
    for (std::uint64_t i = 0; i < nfiles; ++i)
      ns.create(pick(rng, dirs), "f" + std::to_string(i), engine.now());
    for (const DirFragId& f : all_frags(cluster)) cluster.maybe_split(f);
    heat(rng);
    advance_to(engine.now() + rng.uniform(1, 3000) * kMsec);

    // A nested island: a directory moves away and one of its
    // subdirectories comes back, so the original owner holds a root
    // below a foreign bound.
    const MdsRank other = static_cast<MdsRank>(
        rng.uniform(1, static_cast<std::uint64_t>(cluster.num_mds() - 1)));
    for (std::size_t i = 1; i < dirs.size(); ++i) {
      const InodeId d = dirs[i];
      const auto sub =
          std::find_if(dirs.begin() + 1, dirs.end(), [&](InodeId x) {
            return ns.inode(x)->parent == d;
          });
      if (sub == dirs.end()) continue;
      cluster.export_subtree(ns.frag_of(d, ns.inode(*sub)->name), other);
      engine.run();
      cluster.export_subtree({*sub, ns.dir(*sub)->frags.begin()->first}, 0);
      engine.run();
      break;
    }
    // Further committed exports between random ranks; some land inside
    // foreign regions, some are refused.
    const auto nexports = rng.uniform(1, 5);
    for (std::uint64_t i = 0; i < nexports; ++i) {
      const MdsRank to = static_cast<MdsRank>(
          rng.uniform(0, static_cast<std::uint64_t>(cluster.num_mds() - 1)));
      cluster.export_subtree(pick(rng, all_frags(cluster)), to);
      engine.run();
    }
    const CrossRename r = plan_cross_rename(rng);
    if (r.moving != kNoInode) rename(r);
    heat(rng);
    advance_to(engine.now() + rng.uniform(1, 3000) * kMsec);
  }

 private:
  std::uint64_t renames_ = 0;
};

ClusterConfig random_config(Rng& rng) {
  ClusterConfig cfg;
  cfg.num_mds = static_cast<int>(rng.uniform(2, 4));
  cfg.max_drill_depth = static_cast<int>(rng.uniform(1, 8));
  cfg.too_big_factor = rng.uniform_real(0.5, 1.5);
  cfg.split_size = 6;
  cfg.split_bits = static_cast<std::uint8_t>(rng.uniform(1, 2));
  return cfg;
}

// One world is driven by the reference walk, its twin by one
// CandidateCache per tick, through the same goals and exports. Pools and
// metaload() traffic must agree exactly, and so must the twins' state at
// the end: a cache that read a decay counter the walk skips (or the other
// way round) would re-round it and show up in later loads.
TEST(CandidateCache, MatchesPerTargetWalkOnRandomTicks) {
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  std::uint64_t nonempty_pools = 0;
  std::uint64_t split_frags = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng cfg_rng(seed);
    const ClusterConfig cfg = random_config(cfg_rng);
    World a(cfg);
    World b(cfg);
    Rng build_a(seed * 7919);
    Rng build_b(seed * 7919);
    a.build(build_a);
    b.build(build_b);
    for (const DirFragId& f : all_frags(a.cluster))
      split_frags += f.frag == frag_t() ? 0 : 1;

    balancers::OriginalBalancer original;
    balancers::AdaptableBalancer adaptable;
    Balancer& policy =
        seed % 2 == 0 ? static_cast<Balancer&>(original) : adaptable;
    Rng rng(seed ^ 0xabcdefULL);
    for (int tick = 0; tick < 4; ++tick) {
      // Short gaps leave earlier migrations in flight (frozen at the
      // start of the tick); long ones let them commit.
      const Time gap = rng.next_double() < 0.5 ? rng.uniform(1, 30) * kMsec
                                               : rng.uniform(1, 4000) * kMsec;
      const Time now = a.engine.now() + gap;
      a.advance_to(now);
      b.advance_to(now);
      Rng heat_a(seed * 31 + static_cast<std::uint64_t>(tick));
      Rng heat_b(seed * 31 + static_cast<std::uint64_t>(tick));
      a.heat(heat_a);
      b.heat(heat_b);

      const MdsRank rank = static_cast<MdsRank>(
          rng.uniform(0, static_cast<std::uint64_t>(cfg.num_mds - 1)));
      CandidateCache cache(b.cluster, rank, now);

      std::vector<double> goals(rng.uniform(2, 10));
      for (double& g : goals) g = rng.uniform_real(0.5, 400.0);
      const auto order = rng.uniform(0, 2);
      if (order == 0) std::sort(goals.begin(), goals.end());
      if (order == 1) std::sort(goals.rbegin(), goals.rend());

      for (const double goal : goals) {
        CountingBalancer walk_policy(policy);
        CountingBalancer cache_policy(policy);
        const auto want =
            reference_gather(a.cluster, rank, goal, walk_policy, now);
        const auto got = cache.pool(goal, cache_policy);
        expect_same_pool(want, got);
        expect_same_calls(walk_policy.calls, cache_policy.calls);
        nonempty_pools += want.empty() ? 0 : 1;

        // Exports between targets, as the tick orders them: mostly pool
        // picks, some arbitrary frags (ancestors of in-flight exports,
        // frozen frags and self-exports are refused).
        const auto nexports = rng.uniform(0, 3);
        for (std::uint64_t i = 0; i < nexports; ++i) {
          const DirFragId frag = !want.empty() && rng.next_double() < 0.7
                                     ? pick(rng, want).frag
                                     : pick(rng, all_frags(a.cluster));
          const MdsRank to = static_cast<MdsRank>(
              rng.uniform(0, static_cast<std::uint64_t>(cfg.num_mds - 1)));
          const bool ok_a = a.cluster.export_subtree(frag, to);
          const bool ok_b = b.cluster.export_subtree(frag, to);
          ASSERT_EQ(ok_a, ok_b);
          if (ok_b) cache.exported(frag);
          (ok_a ? accepted : refused) += 1;
        }
      }
    }

    a.engine.run();
    b.engine.run();
    ASSERT_EQ(a.cluster.migrations(), b.cluster.migrations());
    const Time end = a.engine.now() + 7 * kSec;
    const auto frags = all_frags(a.cluster);
    ASSERT_EQ(frags, all_frags(b.cluster));
    for (const DirFragId& f : frags)
      for (int op = 0; op < mantle::mds::kNumMetaOps; ++op)
        EXPECT_EQ(bits(a.cluster.ns().frag_pop(f, static_cast<MetaOp>(op), end)),
                  bits(b.cluster.ns().frag_pop(f, static_cast<MetaOp>(op), end)))
            << f.str();
  }
  // The sweep must have exercised split frags, both export outcomes and
  // real pools.
  EXPECT_GT(split_frags, 0u);
  EXPECT_GT(accepted, 50u);
  EXPECT_GT(refused, 50u);
  EXPECT_GT(nonempty_pools, 200u);
}

// Rank 0 owns the root and an island /p/q below rank 1's /p. A first pool
// caches /p/q; exporting the root (an ancestor of the island) must freeze
// the cached entry for every later pool of the tick.
TEST(CandidateCache, ExportingAnAncestorFreezesCachedDescendants) {
  Harness h(3);
  const InodeId root = h.cluster.ns().root();
  const InodeId p = h.mkdir(root, "p");
  const InodeId q = h.mkdir(p, "q");
  const InodeId x = h.mkdir(root, "x");
  h.cluster.ns().create(q, "fq", 0);
  h.cluster.ns().create(x, "fx", 0);
  ASSERT_TRUE(h.cluster.export_subtree({p, frag_t()}, 1));
  h.engine.run();
  ASSERT_TRUE(h.cluster.export_subtree({q, frag_t()}, 0));
  h.engine.run();
  h.heat(q, "fq", 30);
  h.heat(x, "fx", 50);
  ASSERT_EQ(h.cluster.roots_of(0).size(), 2u);

  const Time now = h.engine.now();
  CandidateCache cache(h.cluster, 0, now);
  const auto first = cache.pool(20.0, h.policy);
  expect_same_pool(reference_gather(h.cluster, 0, 20.0, h.policy, now), first);
  ASSERT_TRUE(std::any_of(first.begin(), first.end(), [&](const auto& c) {
    return c.frag.ino == q;
  }));

  const DirFragId whole{root, frag_t()};
  ASSERT_TRUE(h.cluster.export_subtree(whole, 2));
  cache.exported(whole);
  ASSERT_TRUE(h.cluster.is_frozen({q, frag_t()}));
  const auto second = cache.pool(20.0, h.policy);
  expect_same_pool(reference_gather(h.cluster, 0, 20.0, h.policy, now), second);
  EXPECT_TRUE(second.empty());
}

// ---------------------------------------------------------------------------
// The invariant CandidateCache depends on
// ---------------------------------------------------------------------------

/// What a tick's candidate gathering reads from the cluster, minus pops
/// (which are compared separately, at one instant).
struct Observed {
  std::vector<MdsRank> auth;
  std::vector<bool> frozen;
  std::vector<std::size_t> entries;  // per frag, per rank filter
  std::map<DirFragId, MdsRank> roots;
  std::vector<std::vector<DirFragId>> roots_of;

  bool operator==(const Observed&) const = default;
};

Observed observe(const MdsCluster& c, const std::vector<DirFragId>& frags) {
  Observed o;
  o.roots = c.subtree_roots();
  for (MdsRank r = 0; r < c.num_mds(); ++r) o.roots_of.push_back(c.roots_of(r));
  for (const DirFragId& f : frags) {
    o.auth.push_back(c.auth_of(f));
    o.frozen.push_back(c.is_frozen(f));
    for (MdsRank r = kNoRank; r < c.num_mds(); ++r)
      o.entries.push_back(c.subtree_entry_count(f, r));
  }
  return o;
}

/// subtree_pop of every frag under every rank filter, bitwise.
std::vector<std::uint64_t> pops(const MdsCluster& c,
                                const std::vector<DirFragId>& frags,
                                Time now) {
  std::vector<std::uint64_t> out;
  for (const DirFragId& f : frags) {
    for (MdsRank r = kNoRank; r < c.num_mds(); ++r) {
      const PopSnapshot p = c.subtree_pop(f, r, now);
      for (const double v : {p.ird, p.iwr, p.readdir, p.fetch, p.store})
        out.push_back(bits(v));
    }
  }
  return out;
}

// From export_subtree() returning true until that migration commits,
// authority, the subtree map, every frag's entry counts and popularity
// stay unchanged, and is_frozen turns true exactly for the exported frag
// and its descendants. A change that moved any of this to the start of
// the 2PC would silently corrupt the tick's cached pools; it fails here.
TEST(CandidateCache, ExportChangesOnlyFrozenStatusUntilCommit) {
  int worlds_with_exports = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng cfg_rng(seed);
    const ClusterConfig cfg = random_config(cfg_rng);
    // `a` exports, its twin `b` does not.
    World a(cfg);
    World b(cfg);
    Rng build_a(seed * 15485863);
    Rng build_b(seed * 15485863);
    a.build(build_a);
    b.build(build_b);
    const Time now = a.engine.now();
    const auto frags = all_frags(a.cluster);
    const auto pops_before = pops(a.cluster, frags, now);
    ASSERT_EQ(pops_before, pops(b.cluster, frags, now));
    Observed before = observe(a.cluster, frags);

    Rng rng(seed);
    std::vector<DirFragId> exported;
    for (int i = 0; i < 6; ++i) {
      const DirFragId frag = pick(rng, frags);
      const MdsRank to = static_cast<MdsRank>(
          rng.uniform(0, static_cast<std::uint64_t>(cfg.num_mds - 1)));
      if (!a.cluster.export_subtree(frag, to)) continue;
      exported.push_back(frag);
      Observed after = observe(a.cluster, frags);
      for (std::size_t k = 0; k < frags.size(); ++k) {
        if (a.cluster.frag_contains(frag, frags[k]))
          EXPECT_TRUE(after.frozen[k]) << frags[k].str();
        else
          EXPECT_EQ(after.frozen[k], before.frozen[k]) << frags[k].str();
      }
      before.frozen = after.frozen;
      EXPECT_EQ(after, before);
      EXPECT_EQ(pops(a.cluster, frags, now), pops_before);
    }
    if (exported.empty()) continue;
    ++worlds_with_exports;

    // Just before the first commit, the exporting world still matches
    // its twin everywhere except frozen status.
    Time first_commit = sim::kTimeMax;
    for (const MigrationRecord& m : a.cluster.active_migration_records())
      first_commit = std::min(
          first_commit, m.started + cfg.mig_base +
                            kMigPerEntry * static_cast<Time>(m.entries));
    a.advance_to(first_commit - 1);
    b.advance_to(first_commit - 1);
    Observed pre_a = observe(a.cluster, frags);
    const Observed pre_b = observe(b.cluster, frags);
    for (std::size_t k = 0; k < frags.size(); ++k) {
      const bool covered =
          std::any_of(exported.begin(), exported.end(), [&](const auto& e) {
            return a.cluster.frag_contains(e, frags[k]);
          });
      EXPECT_EQ(pre_a.frozen[k], pre_b.frozen[k] || covered) << frags[k].str();
    }
    pre_a.frozen = pre_b.frozen;
    EXPECT_EQ(pre_a, pre_b);
    EXPECT_EQ(pops(a.cluster, frags, first_commit - 1),
              pops(b.cluster, frags, first_commit - 1));

    // The commit is where authority moves.
    a.engine.run();
    EXPECT_EQ(a.cluster.active_migration_count(), 0u);
    EXPECT_EQ(a.cluster.auth_of(a.cluster.migrations().back().frag),
              a.cluster.migrations().back().to);
  }
  EXPECT_GE(worlds_with_exports, 15);
}

// ---------------------------------------------------------------------------
// Namespace walks against the dentry scan they replaced
// ---------------------------------------------------------------------------

/// Reference oracle: the region walk as every namespace walk ran before
/// the per-frag directory index. It looks up every dentry of a visited
/// frag as a possible child directory, and returns the frags it visits in
/// visiting order.
std::vector<DirFragId> scan_region(const MdsCluster& c,
                                   std::vector<DirFragId> stack,
                                   MdsRank owner) {
  std::vector<DirFragId> out;
  while (!stack.empty()) {
    const DirFragId cur = stack.back();
    stack.pop_back();
    const mantle::mds::DirFrag* f = c.ns().frag(cur);
    if (f == nullptr) continue;
    if (owner != kNoRank && f->auth != owner) continue;
    out.push_back(cur);
    for (const auto& [name, ino] : by_name(*f)) {
      const mantle::mds::Dir* child = c.ns().dir(ino);
      if (child == nullptr) continue;
      for (const auto& [cf, cdf] : child->frags) stack.push_back({ino, cf});
    }
  }
  return out;
}

PopSnapshot scan_pop(const MdsCluster& c, const DirFragId& root,
                     MdsRank rank, Time now) {
  PopSnapshot out;
  const auto& rate = c.ns().decay_rate();
  for (const DirFragId& id : scan_region(c, {root}, rank)) {
    const mantle::mds::PopVector& pop = c.ns().frag(id)->pop;
    out.ird += pop.get(MetaOp::IRD, now, rate);
    out.iwr += pop.get(MetaOp::IWR, now, rate);
    out.readdir += pop.get(MetaOp::READDIR, now, rate);
    out.fetch += pop.get(MetaOp::FETCH, now, rate);
    out.store += pop.get(MetaOp::STORE, now, rate);
  }
  return out;
}

std::size_t scan_entry_count(const MdsCluster& c, const DirFragId& root,
                             MdsRank rank) {
  std::size_t n = 0;
  for (const DirFragId& id : scan_region(c, {root}, rank))
    n += c.ns().frag(id)->dentries.size();
  return n;
}

std::vector<std::size_t> scan_auth_entry_counts(const MdsCluster& c) {
  std::vector<std::size_t> out(static_cast<std::size_t>(c.num_mds()), 0);
  for (const auto& [frag, rank] : c.subtree_roots())
    out[static_cast<std::size_t>(rank)] += scan_entry_count(c, frag, rank);
  return out;
}

/// Every walk read-out at `now` equals the oracle's: subtree pops bit for
/// bit in every field, entry counts exactly, for every frag under every
/// rank filter.
void expect_walks_match_scan(const MdsCluster& c, Time now) {
  for (const DirFragId& f : all_frags(c)) {
    for (MdsRank r = kNoRank; r < c.num_mds(); ++r) {
      SCOPED_TRACE(f.str() + " rank " + std::to_string(r));
      expect_same_calls({scan_pop(c, f, r, now)}, {c.subtree_pop(f, r, now)});
      EXPECT_EQ(c.subtree_entry_count(f, r), scan_entry_count(c, f, r));
    }
  }
  const std::vector<std::size_t> counts = scan_auth_entry_counts(c);
  EXPECT_EQ(c.auth_entry_counts(), counts);
  for (MdsRank r = 0; r < c.num_mds(); ++r)
    EXPECT_EQ(c.auth_entry_count(r), counts[static_cast<std::size_t>(r)]);
}

std::map<DirFragId, MdsRank> auth_map(const MdsCluster& c) {
  std::map<DirFragId, MdsRank> out;
  for (const DirFragId& f : all_frags(c)) out[f] = c.ns().frag(f)->auth;
  return out;
}

std::set<DirFragId> dirty_frags(const MdsCluster& c) {
  std::set<DirFragId> out;
  for (const DirFragId& f : all_frags(c))
    if (c.ns().frag(f)->dirty) out.insert(f);
  return out;
}

/// `after` is `before` with exactly the frags of `region` handed to `to`.
void expect_handed_over(std::map<DirFragId, MdsRank> before,
                        const std::map<DirFragId, MdsRank>& after,
                        const std::vector<DirFragId>& region, MdsRank to) {
  for (const DirFragId& f : region) before[f] = to;
  EXPECT_EQ(after, before);
}

// subtree_pop, subtree_entry_count, auth_entry_count and
// auth_entry_counts equal the dentry scan exactly, before and after the
// four walks that move authority or write back. Each of those touches
// exactly the oracle's region: a cross-authority directory rename
// (reparent_subtree), an export commit (finish_migration), a write-back
// on every rank (flush_dirty) and a crash takeover (adopt_subtrees).
TEST(NamespaceWalk, MatchesDentryScanOnRandomWorlds) {
  int reparented = 0;
  int committed = 0;
  std::size_t flushed = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng cfg_rng(seed);
    World w(random_config(cfg_rng));
    MdsCluster& c = w.cluster;
    Rng rng(seed * 104729);
    w.build(rng);
    expect_walks_match_scan(c, w.engine.now());

    const World::CrossRename r = w.plan_cross_rename(rng);
    if (r.moving != kNoInode) {
      std::vector<DirFragId> frags;
      for (const auto& [f, df] : c.ns().dir(r.moving)->frags)
        frags.push_back({r.moving, f});
      const auto region = scan_region(c, frags, r.from);
      const auto before = auth_map(c);
      w.rename(r);
      ASSERT_EQ(c.ns().inode(r.moving)->parent, r.dst_dir);
      expect_handed_over(before, auth_map(c), region, r.to);
      reparented += region.empty() ? 0 : 1;
    }

    const DirFragId frag = pick(rng, all_frags(c));
    const MdsRank from = c.auth_of(frag);
    const auto to = static_cast<MdsRank>(
        (static_cast<std::uint64_t>(from) + 1 +
         rng.uniform(0, static_cast<std::uint64_t>(c.num_mds() - 2))) %
        static_cast<std::uint64_t>(c.num_mds()));
    const auto exported = scan_region(c, {frag}, from);
    auto before = auth_map(c);
    if (c.export_subtree(frag, to)) {
      w.engine.run();
      expect_handed_over(before, auth_map(c), exported, to);
      ++committed;
    }

    for (MdsRank rank = 0; rank < c.num_mds(); ++rank) {
      std::set<DirFragId> want = dirty_frags(c);
      for (const DirFragId& root : c.roots_of(rank))
        for (const DirFragId& f : scan_region(c, {root}, rank))
          flushed += want.erase(f);
      c.flush_dirty(rank);
      EXPECT_EQ(dirty_frags(c), want) << "rank " << rank;
    }

    std::vector<MdsRank> owners;
    for (MdsRank rank = 0; rank < c.num_mds(); ++rank)
      if (!c.roots_of(rank).empty()) owners.push_back(rank);
    const MdsRank dead = pick(rng, owners);
    std::vector<DirFragId> lost;
    for (const DirFragId& root : c.roots_of(dead))
      for (const DirFragId& f : scan_region(c, {root}, dead)) lost.push_back(f);
    before = auth_map(c);
    ASSERT_TRUE(c.crash_mds(dead));
    w.engine.run();
    const RecoveryEvent& took = c.recovery_log().back();
    ASSERT_EQ(took.kind, RecoveryEvent::Kind::TakeoverComplete);
    expect_handed_over(before, auth_map(c), lost, took.peer);

    w.advance_to(w.engine.now() + rng.uniform(1, 3000) * kMsec);
    w.heat(rng);
    expect_walks_match_scan(c, w.engine.now());
  }
  EXPECT_GE(reparented, 30);
  EXPECT_GE(committed, 35);
  EXPECT_GT(flushed, 500u);
}

}  // namespace
}  // namespace mantle::cluster

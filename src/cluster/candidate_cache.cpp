#include "cluster/candidate_cache.hpp"

#include <algorithm>

namespace mantle::cluster {

CandidateCache::CandidateCache(const MdsCluster& cluster, MdsRank rank,
                               Time now)
    : cluster_(cluster), rank_(rank), now_(now), roots_(cluster.roots_of(rank)) {
  for (const MigrationRecord& m : cluster.active_migration_records())
    in_flight_.push_back(m.frag);
}

bool CandidateCache::frozen(const DirFragId& id, Entry& e) {
  // Same answer as MdsCluster::is_frozen. Frozen status only grows while
  // the cache lives, so an entry is tested against just the migrations
  // started since it was last asked about.
  for (; !e.frozen && e.checked < in_flight_.size(); ++e.checked)
    e.frozen = cluster_.frag_contains(in_flight_[e.checked], id);
  return e.frozen;
}

void CandidateCache::measure(const DirFragId& id, Entry& e) {
  // Only ever reached after the frozen check, as in a plain walk: the
  // first read of a decay counter at a new clock re-rounds it, so a frag
  // the walk would skip must not be read here either.
  if (e.measured) return;
  e.pop = cluster_.subtree_pop(id, rank_, now_);
  e.entries = cluster_.subtree_entry_count(id, rank_);
  e.measured = true;
}

void CandidateCache::list_children(const DirFragId& id, Entry& e) {
  if (e.listed) return;
  e.listed = true;
  const mantle::mds::DirFrag* f = cluster_.ns().frag(id);
  if (f == nullptr) {
    e.missing = true;
    return;
  }
  for (const auto& [name, ino] : f->subdirs) {
    const mantle::mds::Dir* child = cluster_.ns().dir(ino);
    if (child == nullptr) continue;
    for (const auto& [cf, cdf] : child->frags)
      if (cdf.auth == rank_) e.children.push_back({ino, cf});
  }
}

std::vector<ExportCandidate> CandidateCache::pool(double target,
                                                  const Balancer& policy) {
  struct Item {
    ExportCandidate cand;
    Entry* entry = nullptr;
    bool drillable = true;
  };
  std::vector<Item> items;
  auto add = [&](const DirFragId& id, std::vector<Item>& into) {
    Entry& e = entries_[id];
    if (frozen(id, e)) return;
    measure(id, e);
    Item item;
    item.cand.frag = id;
    item.cand.load = policy.metaload(e.pop);
    item.cand.entries = e.entries;
    item.entry = &e;
    into.push_back(item);
  };
  for (const DirFragId& root : roots_) add(root, items);

  // Drill down: a candidate too hot to ship whole is replaced by its child
  // directories' fragments ("subtrees are divided and migrated only if
  // their ancestors are too popular to migrate", §3.2).
  const ClusterConfig& cfg = cluster_.config();
  const double too_big = target * cfg.too_big_factor;
  for (int depth = 0; depth < cfg.max_drill_depth; ++depth) {
    bool drilled = false;
    std::vector<Item> next;
    for (Item& item : items) {
      if (!item.drillable || item.cand.load <= too_big) {
        next.push_back(item);
        continue;
      }
      Entry& e = *item.entry;
      list_children(item.cand.frag, e);
      if (e.missing) continue;
      if (e.children.empty()) {
        // A hot flat directory: nothing below to descend into, so it is
        // exportable as-is (directory fragmentation handles splitting).
        item.drillable = false;
        next.push_back(item);
        continue;
      }
      drilled = true;
      for (const DirFragId& c : e.children) add(c, next);
    }
    items = std::move(next);
    if (!drilled) break;
  }

  std::vector<ExportCandidate> out;
  out.reserve(items.size());
  for (const Item& item : items)
    if (item.cand.load > 0.0 || item.cand.entries > 0) out.push_back(item.cand);
  std::sort(out.begin(), out.end(),
            [](const ExportCandidate& a, const ExportCandidate& b) {
              if (a.load != b.load) return a.load > b.load;
              return a.frag < b.frag;
            });
  return out;
}

}  // namespace mantle::cluster

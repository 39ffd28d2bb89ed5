#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"

/// Property test for the engine's queue: against a reference
/// std::priority_queue, the dispatch order over thousands of random
/// schedules — with nested rescheduling, random cancels and random
/// run_until slices — must be identical, element for element. This is the
/// exact-(when, seq)-order guarantee the Figure 4 reproduction rests on:
/// determinism comes from the queue, so the queue must be a drop-in total
/// order, and cancelling an event must remove it and nothing else.

namespace mantle::sim {
namespace {

/// Decoys are events that only record themselves; their ids start here.
constexpr std::uint64_t kDecoy = std::uint64_t{1} << 40;
constexpr std::uint64_t kNoVictim = ~std::uint64_t{0};

/// What a dispatch does with decoys, drawn the same way on both sides.
struct DecoyStep {
  bool schedule = false;
  Time delay = 0;
  std::uint64_t victim = kNoVictim;  ///< decoy index to cancel
};

/// Half the time schedule a decoy; then, half the time, cancel one of the
/// last 1,000 decoys handed out (`decoys` so far, this one included).
/// Recent decoys are often still queued, but some already ran or were
/// cancelled, and cancelling those must do nothing.
DecoyStep draw_decoys(Rng& rng, std::uint64_t decoys) {
  DecoyStep d;
  if (rng.uniform(0, 1) == 0) {
    d.schedule = true;
    d.delay = rng.uniform(0, 10'000'000);
    ++decoys;
  }
  if (decoys > 0 && rng.uniform(0, 1) == 0) {
    const std::uint64_t window = std::min<std::uint64_t>(decoys, 1'000);
    d.victim = decoys - 1 - rng.uniform(0, window - 1);
  }
  return d;
}

/// Reference model: a plain (when, seq) min-heap. A reserved seq is one
/// the heap hands out but never holds. A cancelled id stays in the heap
/// and is skipped when it reaches the top; cancelling an id that already
/// left the heap does nothing.
class RefQueue {
 public:
  void push(Time when, std::uint64_t id) { q_.emplace(when, seq_++, id); }
  std::uint64_t reserve() { return seq_++; }
  void cancel(std::uint64_t id) { cancelled_.insert(id); }
  bool empty() {
    while (!q_.empty() && cancelled_.contains(std::get<2>(q_.top()))) {
      q_.pop();
      ++skipped_;
    }
    return q_.empty();
  }
  // top_when(), top_seq() and pop() require !empty() just before.
  Time top_when() const { return std::get<0>(q_.top()); }
  std::uint64_t top_seq() const { return std::get<1>(q_.top()); }
  std::uint64_t pop() {
    const auto [when, seq, id] = q_.top();
    q_.pop();
    (void)when;
    (void)seq;
    return id;
  }
  /// Cancelled events that were still queued when cancelled.
  std::uint64_t skipped() const { return skipped_; }

 private:
  using Key = std::tuple<Time, std::uint64_t, std::uint64_t>;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> q_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::uint64_t seq_ = 0;
  std::uint64_t skipped_ = 0;
};

TEST(EngineProperty, MatchesReferenceHeapOrder) {
  Rng rng(0xdecade);
  Engine e;
  RefQueue ref;
  std::vector<std::uint64_t> engine_order;
  std::vector<std::uint64_t> ref_order;
  std::uint64_t next_id = 0;

  // Mixed horizon profile: short hops, mid-range jumps and far-future
  // leaps, so the heap holds keys spread over seven orders of magnitude.
  const auto random_delay = [&]() -> Time {
    switch (rng.uniform(0, 3)) {
      case 0: return rng.uniform(0, 50);
      case 1: return rng.uniform(0, 5'000);
      case 2: return rng.uniform(0, 1'000'000);
      default: return rng.uniform(0, 500'000'000);
    }
  };

  // Each dispatched event may reschedule fresh events (nested schedules),
  // mirrored into the reference model with the same ids and times. A
  // dedicated RNG decides the fan-out so both models see the same stream.
  // With 0-2 children per event (mean 1) the fan-out is a critical
  // branching process: left alone, the 10k seeds grow to ~95M events.
  // Both models stop spawning once kMaxEvents have been scheduled, which
  // bounds the run at ~1M dispatches. A third of the dispatches also
  // reserve a seq (reserve_seq(), as deferred heartbeat deliveries do),
  // before or after their children. Last, every dispatch takes a decoy
  // step (draw_decoys), which schedules and cancels decoys. Decoys have
  // no children, so cancelling them leaves the fan-out alone, and their
  // own RNG draws them, so they go on after the spawn cap while the queue
  // drains.
  constexpr int kSeeds = 10'000;
  constexpr std::uint64_t kMaxEvents = 1'000'000;
  Rng fanout_rng(0xfa11);
  Rng decoy_rng(0xdec0);
  std::vector<EventId> seed_ids(kSeeds);
  std::vector<EventId> decoy_ids;
  std::vector<std::pair<Time, std::uint64_t>> pending_children;
  std::uint64_t reserve_where = 0;  // 0: before the children, 1: after
  const auto spawn_children = [&](Time now) {
    pending_children.clear();
    reserve_where = 2;
    if (next_id >= kMaxEvents) return;
    const std::uint64_t n = fanout_rng.uniform(0, 2);
    for (std::uint64_t i = 0; i < n; ++i) {
      Time d = 0;
      switch (fanout_rng.uniform(0, 2)) {
        case 0: d = fanout_rng.uniform(0, 100); break;
        case 1: d = fanout_rng.uniform(0, 10'000); break;
        default: d = fanout_rng.uniform(0, 10'000'000); break;
      }
      pending_children.emplace_back(now + d, next_id++);
    }
    reserve_where = fanout_rng.uniform(0, 5);
  };

  // Every dispatch's (when, seq) and every reserved seq, on each side.
  std::vector<std::pair<Time, std::uint64_t>> engine_keys;
  std::vector<std::uint64_t> reserved;
  std::vector<std::pair<Time, std::uint64_t>> ref_keys;
  std::vector<std::uint64_t> ref_reserved;
  const auto record = [&](std::uint64_t id) {
    engine_order.push_back(id);
    engine_keys.emplace_back(e.now(), e.current_seq());
  };
  std::function<void(std::uint64_t)> on_fire = [&](std::uint64_t id) {
    record(id);
    spawn_children(e.now());
    if (reserve_where == 0) reserved.push_back(e.reserve_seq());
    for (const auto& [when, cid] : pending_children)
      e.schedule_at(when, [&on_fire, cid] { on_fire(cid); });
    if (reserve_where == 1) reserved.push_back(e.reserve_seq());
    const DecoyStep d = draw_decoys(decoy_rng, decoy_ids.size());
    if (d.schedule) {
      const std::uint64_t did = kDecoy + decoy_ids.size();
      decoy_ids.push_back(
          e.schedule_at(e.now() + d.delay, [&record, did] { record(did); }));
    }
    if (d.victim != kNoVictim) e.cancel(decoy_ids[d.victim]);
  };

  // Seed both models with 10k random schedules; every seventh seed is
  // preceded by a reserved seq.
  for (int i = 0; i < kSeeds; ++i) {
    if (i % 7 == 3) {
      reserved.push_back(e.reserve_seq());
      ref_reserved.push_back(ref.reserve());
    }
    const Time when = random_delay();
    const std::uint64_t id = next_id++;
    seed_ids[id] = e.schedule_at(when, [&on_fire, id] { on_fire(id); });
    ref.push(when, id);
  }
  // Cancel about 55% of the seeds. Once the cancelled keys outnumber the
  // live ones the engine rebuilds its heap without them, which returns
  // their pool slots.
  std::size_t seeds_cancelled = 0;
  for (std::uint64_t id = 0; id < kSeeds; ++id) {
    if (rng.uniform(0, 99) >= 55) continue;
    e.cancel(seed_ids[id]);
    ref.cancel(id);
    ++seeds_cancelled;
  }
  EXPECT_EQ(e.pending(), kSeeds - seeds_cancelled);
  EXPECT_LT(e.pool_stats().live, static_cast<std::size_t>(kSeeds));

  // Drain in random run_until slices. The reference replays the engine's
  // child spawns: fanout_rng is consumed in dispatch order, which both
  // models share if and only if the order matches — verified id by id.
  Rng slice_rng(0x511ce);
  Time horizon = 0;
  while (!e.empty()) {
    horizon += slice_rng.uniform(1, 20'000'000);
    e.run_until(horizon);
  }

  // Replay the reference: same initial events, same fanout stream, same
  // spawn cap, same reservations, same decoys.
  Rng ref_fanout(0xfa11);
  Rng ref_decoy(0xdec0);
  std::uint64_t ref_scheduled = kSeeds;
  std::uint64_t ref_decoys = 0;
  std::vector<std::pair<Time, std::uint64_t>> children;
  while (!ref.empty()) {
    const Time now = ref.top_when();
    ref_keys.emplace_back(now, ref.top_seq());
    const std::uint64_t id = ref.pop();
    ref_order.push_back(id);
    if (id >= kDecoy) continue;
    children.clear();
    std::uint64_t where = 2;
    if (ref_scheduled < kMaxEvents) {
      const std::uint64_t n = ref_fanout.uniform(0, 2);
      for (std::uint64_t i = 0; i < n; ++i) {
        Time d = 0;
        switch (ref_fanout.uniform(0, 2)) {
          case 0: d = ref_fanout.uniform(0, 100); break;
          case 1: d = ref_fanout.uniform(0, 10'000); break;
          default: d = ref_fanout.uniform(0, 10'000'000); break;
        }
        children.emplace_back(now + d, ref_scheduled++);
      }
      where = ref_fanout.uniform(0, 5);
    }
    if (where == 0) ref_reserved.push_back(ref.reserve());
    for (const auto& [when, cid] : children) ref.push(when, cid);
    if (where == 1) ref_reserved.push_back(ref.reserve());
    const DecoyStep d = draw_decoys(ref_decoy, ref_decoys);
    if (d.schedule) ref.push(now + d.delay, kDecoy + ref_decoys++);
    if (d.victim != kNoVictim) ref.cancel(kDecoy + d.victim);
  }

  // Both models number children in dispatch order, so the ids match
  // exactly when the dispatch orders do, children included.
  ASSERT_EQ(engine_order.size(), ref_order.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < ref_order.size(); ++i)
    if (engine_order[i] != ref_order[i]) ++mismatches;
  EXPECT_EQ(mismatches, 0u);
  // The cancels took effect: many queued events never ran.
  EXPECT_GT(ref.skipped(), 100'000u);
  EXPECT_EQ(e.pool_stats().live, 0u);

  // Reserved seqs shift every later seq exactly as scheduled events do:
  // each dispatch carries the reference's (when, seq), current_seq()
  // included, and the reservations hand out the reference's numbers.
  EXPECT_GT(reserved.size(), 100'000u);
  EXPECT_EQ(reserved, ref_reserved);
  EXPECT_TRUE(engine_keys == ref_keys) << "dispatch keys diverge";
  // A reserved seq is never dispatched.
  std::vector<std::uint64_t> dispatched;
  dispatched.reserve(engine_keys.size());
  for (const auto& [when, seq] : engine_keys) dispatched.push_back(seq);
  std::sort(dispatched.begin(), dispatched.end());
  for (const std::uint64_t r : reserved)
    EXPECT_FALSE(std::binary_search(dispatched.begin(), dispatched.end(), r));
  // Between run_until() calls the dispatch point is past every seq handed
  // out so far.
  EXPECT_EQ(e.current_seq(), e.reserve_seq());
}

/// Same-run bit-determinism: two engines fed the same schedule dispatch
/// identically.
TEST(EngineProperty, TwoRunsIdentical) {
  const auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    Engine e;
    std::vector<std::pair<Time, int>> fired;
    for (int i = 0; i < 5'000; ++i) {
      const Time when = rng.uniform(0, 100'000'000);
      e.schedule_at(when, [&fired, i, &e] { fired.emplace_back(e.now(), i); });
    }
    e.run();
    return fired;
  };
  EXPECT_EQ(run(7), run(7));
}

}  // namespace
}  // namespace mantle::sim

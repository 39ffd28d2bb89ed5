#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

namespace mantle::sim {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTimestampIsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine e;
  Time seen = 0;
  e.schedule_at(100, [&] {
    e.schedule_after(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150u);
}

TEST(Engine, PastTimesClampToNow) {
  Engine e;
  Time seen = 0;
  e.schedule_at(100, [&] {
    e.schedule_at(10, [&] { seen = e.now(); });  // "10" is in the past
  });
  e.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine e;
  int fired = 0;
  for (Time t = 0; t < 100; t += 10) e.schedule_at(t, [&] { ++fired; });
  e.run_until(45);
  EXPECT_EQ(fired, 5);  // t = 0,10,20,30,40
  EXPECT_EQ(e.pending(), 5u);
  e.run();
  EXPECT_EQ(fired, 10);
}

TEST(Engine, EventsCanRescheduleThemselves) {
  Engine e;
  int count = 0;
  std::function<void()> self = [&] {
    ++count;
    if (count < 5) e.schedule_after(10, self);
  };
  e.schedule_at(0, self);
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 40u);
}

TEST(Engine, DispatchCountReported) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_at(static_cast<Time>(i), [] {});
  EXPECT_EQ(e.run(), 7u);
  EXPECT_TRUE(e.empty());
}

// Regression: `now_ + delay` used to wrap around on huge delays (e.g. a
// disabled-timeout sentinel), scheduling the event in the past. It now
// saturates at the kTimeMax "never" sentinel and the event is dropped.
TEST(Engine, ScheduleAfterSaturatesInsteadOfWrapping) {
  Engine e;
  bool fired_now = false;
  e.schedule_at(100, [&] {
    e.schedule_after(kTimeMax - 10, [&] { fired_now = true; });
  });
  e.run();
  EXPECT_FALSE(fired_now);  // parked at "never", not wrapped into the past
  EXPECT_EQ(e.saturated_events(), 1u);
  EXPECT_TRUE(e.empty());  // dropped, not leaked as pending
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, ScheduleAtTimeMaxIsNever) {
  Engine e;
  bool fired = false;
  e.schedule_at(kTimeMax, [&] { fired = true; });
  EXPECT_TRUE(e.empty());
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.saturated_events(), 1u);
}

// run_until dispatches every event with when <= horizon; when work
// remains beyond the horizon the clock catches up to it, so
// horizon-sliced drivers always make forward progress even while the
// event stream is sparse.
TEST(Engine, RunUntilCatchesClockUpToHorizon) {
  Engine e;
  int fired = 0;
  e.schedule_at(1000, [&] { ++fired; });
  e.run_until(10);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now(), 10u);  // clock caught up, event still pending
  EXPECT_EQ(e.pending(), 1u);
  e.run_until(1000);  // boundary: when == horizon fires
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 1000u);
}

TEST(Engine, RunUntilDrainedLeavesClockAtLastEvent) {
  Engine e;
  e.schedule_at(50, [] {});
  e.run_until(5000);
  EXPECT_EQ(e.now(), 50u);  // drained: now() stays at the last event
}

// Same-timestamp FIFO survives interleaved scheduling: events given the
// same `when` up front, from a callback long before it and from one just
// before it still dispatch in scheduling order. Regression for the
// const-moved priority_queue::top() of an earlier heap engine, which
// invoked a copy (silently, via the const ref) and could reorder same-key
// callbacks.
TEST(Engine, SameTimestampFifoAcrossNestedSchedules) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i)
    e.schedule_at(1000, [&order, i] { order.push_back(i); });
  e.schedule_at(10, [&] {
    for (int i = 4; i < 8; ++i)
      e.schedule_at(1000, [&order, i] { order.push_back(i); });
  });
  e.schedule_at(999, [&] {
    for (int i = 8; i < 12; ++i)
      e.schedule_at(1000, [&order, i] { order.push_back(i); });
  });
  e.run();
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, CancelledEventNeverRuns) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] { order.push_back(1); });
  const EventId b = e.schedule_at(20, [&] { order.push_back(2); });
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(40, [&] { order.push_back(4); });
  // Cancelled by the callback just ahead of it at the same timestamp.
  EventId d;
  e.schedule_at(30, [&] { e.cancel(d); });
  d = e.schedule_at(30, [&] { order.push_back(5); });
  e.cancel(b);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(e.now(), 40u);
}

TEST(Engine, CancelAfterDispatchTwiceOrNullIsNoOp) {
  Engine e;
  int fired = 0;
  const EventId ran = e.schedule_at(5, [&] { ++fired; });
  e.run();
  e.cancel(ran);  // already ran
  e.cancel(EventId{});
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.empty());

  const EventId twice = e.schedule_at(10, [&] { ++fired; });
  e.schedule_at(20, [&] { ++fired; });
  e.cancel(twice);
  e.cancel(twice);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, ScheduleAtTimeMaxReturnsNullId) {
  Engine e;
  const EventId never = e.schedule_at(kTimeMax, [] {});
  EXPECT_EQ(never.ref, EventPool::kNullRef);
  e.cancel(never);
  EXPECT_TRUE(e.empty());
}

// A slot is reused once its event ran; the old id names the slot but not
// the new event, so cancelling it must leave the new event alone.
TEST(Engine, StaleIdDoesNotCancelTheSlotsNextEvent) {
  Engine e;
  const EventId old_id = e.schedule_at(5, [] {});
  e.run();
  bool fired = false;
  const EventId fresh = e.schedule_at(10, [&] { fired = true; });
  ASSERT_EQ(fresh.ref, old_id.ref);  // the freed slot was handed out again
  ASSERT_NE(fresh.seq, old_id.seq);
  e.cancel(old_id);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, PendingAndEmptyExcludeCancelled) {
  Engine e;
  const EventId a = e.schedule_at(10, [] {});
  const EventId b = e.schedule_at(20, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_FALSE(e.empty());
  e.cancel(b);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.run(), 0u);
  EXPECT_EQ(e.now(), 0u);  // nothing ran, so the clock did not move
  EXPECT_EQ(e.pool_stats().live, 0u);
}

// Cancelled keys must not pile up behind a live event: once they
// outnumber the live ones the heap is rebuilt without them and their
// slots go back to the pool. Without the rebuild, every cancelled key
// would hold its slot until it reached the top (peak 10,001).
TEST(Engine, CancelledKeysDoNotAccumulate) {
  Engine e;
  bool fired = false;
  e.schedule_at(1'000'000, [&] { fired = true; });
  for (Time t = 1; t <= 10'000; ++t) e.cancel(e.schedule_at(t, [] {}));
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_LT(e.pool_stats().peak_live, 10u);
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.pool_stats().live, 0u);
}

// The rebuild can run inside a callback, mid-dispatch: the events that
// survive it still fire in (when, seq) order.
TEST(Engine, RebuildInsideCallbackKeepsOrder) {
  Engine e;
  std::vector<int> order;
  std::vector<EventId> ids;
  // Spread over 50 timestamps, two events each.
  const auto when_of = [](int i) { return static_cast<Time>(100 + i % 50); };
  for (int i = 0; i < 100; ++i)
    ids.push_back(
        e.schedule_at(when_of(i), [&order, i] { order.push_back(i); }));
  e.schedule_at(1, [&] {
    for (int i = 0; i < 100; ++i)
      if (i % 3 != 0) e.cancel(ids[static_cast<std::size_t>(i)]);
  });
  std::size_t live_after = 0;
  e.schedule_at(2, [&] { live_after = e.pool_stats().live; });
  e.run();

  std::vector<int> expected;
  for (int i = 0; i < 100; i += 3) expected.push_back(i);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](int a, int b) { return when_of(a) < when_of(b); });
  EXPECT_EQ(order, expected);
  EXPECT_LT(live_after, 100u);  // the rebuild returned cancelled slots
}

TEST(Engine, PoolRecyclesSlots) {
  Engine e;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i)
      e.schedule_after(static_cast<Time>(i), [] {});
    e.run();
  }
  const auto s = e.pool_stats();
  EXPECT_EQ(s.live, 0u);
  EXPECT_EQ(s.peak_live, 100u);     // rounds reuse the same slots
  EXPECT_EQ(s.capacity, 4096u);     // a single chunk was enough
  EXPECT_GT(s.bytes_reserved, 0u);
}

}  // namespace
}  // namespace mantle::sim

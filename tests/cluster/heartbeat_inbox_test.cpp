#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"

/// The heartbeat inbox against the path it replaced. A delivery is not an
/// engine event: MdsCluster::send_heartbeat() parks it in the receiver's
/// inbox, keyed (arrival, seq), and the receiver applies it when its
/// heartbeat state is read. The reference is the event-per-delivery path:
/// one engine event per delivery, which calls on_heartbeat() when it fires
/// if the receiver is up. Both run the same random schedules of sends,
/// reads, crashes and restarts on identical clusters. After every read the
/// two must hold the same tables, counters and hb-received summaries.

namespace mantle::cluster {
namespace {

using mantle::mds::MdsRank;

constexpr int kRanks = 5;
/// Every time in a schedule is a multiple of this, so deliveries, reads,
/// crashes and slice horizons often share a timestamp.
constexpr Time kStep = 10 * kMsec;
constexpr Time kLastAction = 20 * kSec;
constexpr Time kEnd = kLastAction + 3 * kSec;

/// One scheduled action. Drops, duplicates and delays are drawn when the
/// schedule is made, so both sides put the same copies on the wire.
struct Action {
  enum class Kind { Send, ReadOne, ReadAll, Crash, Restart };
  enum class Echo { None, ReadBefore, ReadAfter, Crash };
  struct Copy {
    MdsRank to = 0;
    Time delay = 0;
    /// Something scheduled at exactly this copy's arrival: a read of the
    /// receiver whose seq is before (ReadBefore) or after (ReadAfter) the
    /// delivery's, or a crash of the receiver right after it lands.
    Echo echo = Echo::None;
  };
  Kind kind = Kind::Send;
  Time at = 0;
  MdsRank rank = 0;
  std::vector<Copy> copies;  // Send only
};

struct Schedule {
  std::vector<Action> actions;
  std::vector<Time> slices;  // run_until() steps; reads follow each one
};

Schedule make_schedule(std::uint64_t seed) {
  Rng rng(seed);
  Schedule s;
  const auto step = [&](std::uint64_t lo, std::uint64_t hi) {
    return kStep * static_cast<Time>(rng.uniform(lo, hi));
  };
  const std::uint64_t n = rng.uniform(40, 120);
  for (std::uint64_t i = 0; i < n; ++i) {
    Action a;
    a.at = step(0, kLastAction / kStep);
    a.rank = static_cast<MdsRank>(rng.uniform(0, kRanks - 1));
    const std::uint64_t k = rng.uniform(0, 19);
    if (k < 10) {
      a.kind = Action::Kind::Send;
      for (MdsRank p = 0; p < kRanks; ++p) {
        if (p == a.rank || rng.uniform(0, 9) == 0) continue;  // self, drop
        const int copies = rng.uniform(0, 9) == 0 ? 2 : 1;    // duplicate
        for (int c = 0; c < copies; ++c) {
          Action::Copy cp;
          cp.to = p;
          // 250 ms +/- 50% of jitter, sometimes up to 2 s more.
          cp.delay = step(12, 38);
          if (rng.uniform(0, 3) == 0) cp.delay += step(1, 200);
          const std::uint64_t e = rng.uniform(0, 19);
          cp.echo = e < 3   ? Action::Echo::ReadBefore
                    : e < 6 ? Action::Echo::ReadAfter
                    : e < 7 ? Action::Echo::Crash
                            : Action::Echo::None;
          a.copies.push_back(cp);
        }
      }
    } else if (k < 14) {
      a.kind = Action::Kind::ReadOne;
    } else if (k < 16) {
      a.kind = Action::Kind::ReadAll;
    } else if (k < 17) {
      a.kind = Action::Kind::Crash;
    } else {
      a.kind = Action::Kind::Restart;
    }
    s.actions.push_back(std::move(a));
  }
  for (Time t = 0; t < kEnd;) {
    const Time d = step(1, 300);
    s.slices.push_back(d);
    t += d;
  }
  return s;
}

/// One cluster, driven either through the inbox or through the reference,
/// plus the log of everything its reads saw.
struct Side {
  sim::Engine engine;
  MdsCluster cluster;
  bool reference;
  std::vector<std::string> log;

  Side(bool ref, bool stale_guard)
      : cluster(engine,
                [stale_guard] {
                  ClusterConfig cfg;
                  cfg.num_mds = kRanks;
                  cfg.hb_stale_guard = stale_guard;
                  return cfg;
                }()),
        reference(ref) {}

  void deliver(MdsRank to, Time delay, const HeartbeatPayload& hb) {
    if (!reference) {
      cluster.send_heartbeat(to, delay, hb);
      return;
    }
    engine.schedule_after(delay, [this, to, hb] {
      if (cluster.is_up(to)) cluster.node(to).on_heartbeat(hb, engine.now());
    });
  }

  void read_one(MdsRank r) {
    MdsNode& n = cluster.node(r);
    std::string line = "t=" + std::to_string(engine.now()) + " mds" +
                       std::to_string(r) + ":";
    for (const HeartbeatPayload& h : n.heartbeats())
      line += " " + std::to_string(h.epoch) + "@" + std::to_string(h.sent_at) +
              "#" + std::to_string(static_cast<long>(h.all_metaload));
    const MdsNode::HbSummary& s = n.hb_summary();
    line += " | applied=" + std::to_string(s.applied) +
            " stale=" + std::to_string(s.stale) +
            " age=" + std::to_string(s.min_age) + ".." +
            std::to_string(s.max_age);
    log.push_back(std::move(line));
  }

  void read_all() {
    cluster.settle_heartbeats();
    for (MdsRank r = 0; r < kRanks; ++r) read_one(r);
    obs::MetricsRegistry& m = cluster.metrics();
    log.push_back(
        "counters received=" +
        std::to_string(m.counter("mds_heartbeats_received_total").value()) +
        " stale=" +
        std::to_string(
            m.counter("mds_heartbeats_stale_rejected_total").value()) +
        " rejected=" + std::to_string(cluster.stale_heartbeats_rejected()));
  }

  void apply(const Action& a, std::size_t index) {
    switch (a.kind) {
      case Action::Kind::Send: {
        if (!cluster.is_up(a.rank)) return;  // a down rank does not tick
        HeartbeatPayload hb;
        hb.rank = a.rank;
        hb.sent_at = engine.now();
        hb.epoch = cluster.crash_epoch(a.rank);
        hb.all_metaload = static_cast<double>(index);
        for (const Action::Copy& c : a.copies) {
          const MdsRank to = c.to;
          if (c.echo == Action::Echo::ReadBefore)
            engine.schedule_after(c.delay, [this, to] { read_one(to); });
          deliver(to, c.delay, hb);
          if (c.echo == Action::Echo::ReadAfter)
            engine.schedule_after(c.delay, [this, to] { read_one(to); });
          if (c.echo == Action::Echo::Crash)
            engine.schedule_after(c.delay, [this, to] { cluster.crash_mds(to); });
        }
        return;
      }
      case Action::Kind::ReadOne: read_one(a.rank); return;
      case Action::Kind::ReadAll: read_all(); return;
      case Action::Kind::Crash: cluster.crash_mds(a.rank); return;
      case Action::Kind::Restart: cluster.restart_mds(a.rank); return;
    }
  }

  void run(const Schedule& s) {
    for (std::size_t i = 0; i < s.actions.size(); ++i) {
      const Action* a = &s.actions[i];
      engine.schedule_at(a->at, [this, a, i] { apply(*a, i); });
    }
    // A delivery does not keep the engine busy (see the test below); in a
    // cluster the ticks do. This event plays their part until every copy
    // has landed.
    engine.schedule_at(kEnd, [] {});
    // Random slices: reads between run_until() calls see the dispatch
    // point of a returned run, horizon ties included.
    for (const Time d : s.slices) {
      engine.run_until(engine.now() + d);
      read_all();
    }
  }
};

void check_schedules(bool stale_guard, std::uint64_t* stale_total) {
  constexpr std::uint64_t kSchedules = 300;
  for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
    const Schedule s = make_schedule(seed * 7919 + (stale_guard ? 0 : 1));
    Side inbox(false, stale_guard);
    Side ref(true, stale_guard);
    inbox.run(s);
    ref.run(s);
    ASSERT_EQ(inbox.log.size(), ref.log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ref.log.size(); ++i)
      ASSERT_EQ(inbox.log[i], ref.log[i]) << "seed " << seed << " read " << i;
    *stale_total += inbox.cluster.stale_heartbeats_rejected();
  }
}

TEST(HeartbeatInbox, MatchesEventPerDeliveryWithStaleGuard) {
  std::uint64_t stale = 0;
  check_schedules(true, &stale);
  // The schedules do reach the guard: crashes with copies in flight and
  // reordered deliveries get rejected.
  EXPECT_GT(stale, 100u);
}

TEST(HeartbeatInbox, MatchesEventPerDeliveryWithoutStaleGuard) {
  std::uint64_t stale = 0;
  check_schedules(false, &stale);
  EXPECT_EQ(stale, 0u);
}

TEST(HeartbeatInbox, DeliveryIsNoEngineEvent) {
  // A copy on the wire schedules nothing: with no other work the engine
  // is empty and its clock stays put, so the copy stays in flight. It
  // lands once the clock passes its arrival, including on a tie at the
  // horizon of run_until().
  Side s(false, true);
  HeartbeatPayload hb;
  hb.rank = 0;
  s.cluster.send_heartbeat(1, 250 * kMsec, hb);
  EXPECT_TRUE(s.engine.empty());
  s.engine.run();
  EXPECT_EQ(s.engine.now(), 0u);
  EXPECT_EQ(s.cluster.node(1).hb_summary().applied, 0u);

  s.engine.schedule_at(kSec, [] {});
  s.engine.run_until(250 * kMsec);
  EXPECT_EQ(s.engine.now(), 250 * kMsec);
  EXPECT_EQ(s.cluster.node(1).hb_summary().applied, 1u);
  EXPECT_EQ(s.cluster.node(1).hb_summary().max_age, 250 * kMsec);
}

}  // namespace
}  // namespace mantle::cluster

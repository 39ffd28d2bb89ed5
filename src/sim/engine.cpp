#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/profile.hpp"

namespace mantle::sim {

void Engine::schedule_at(Time when, Callback fn) {
  if (when < now_) when = now_;
  if (when == kTimeMax) {
    // "Never" sentinel: the event is disabled, not deferred. Dropping it
    // here (instead of parking it forever) keeps empty()/pending() honest
    // and the drop is deterministic — it depends only on `when`.
    ++saturated_;
    return;
  }
  const Ref r = pool_.alloc(when, next_seq_++, std::move(fn));
  enqueue(r);
  ++size_;
}

void Engine::enqueue(Ref r) {
  const Time when = pool_[r].when;
  if ((!top_.empty() || !rungs_.empty() || !bottom_.empty()) &&
      when >= top_start_) {
    top_.push_back(r);
    if (when < top_min_) top_min_ = when;
    if (when > top_max_) top_max_ = when;
    return;
  }
  if (top_.empty() && rungs_.empty() && bottom_.empty()) {
    // Completely drained: restart the ladder around this event.
    top_start_ = when;
    top_min_ = top_max_ = when;
    top_.push_back(r);
    return;
  }
  // Below the top tier: find the coarsest rung whose drain cursor has not
  // yet passed this time. Each deeper rung covers a strictly earlier span,
  // so the first match is the right home.
  for (Rung& g : rungs_) {
    if (when >= g.cur_start()) {
      std::size_t b = static_cast<std::size_t>((when - g.start) / g.width);
      if (b >= g.buckets.size()) b = g.buckets.size() - 1;
      g.buckets[b].push_back(r);
      ++g.count;
      return;
    }
  }
  bottom_insert(r);
}

void Engine::bottom_insert(Ref r) {
  // bottom_ is sorted descending by (when, seq); dispatch pops from the
  // back. Keys are unique (seq), so this is a total order.
  const auto pos = std::lower_bound(
      bottom_.begin(), bottom_.end(), r,
      [this](Ref a, Ref b) { return earlier(b, a); });
  bottom_.insert(pos, r);
}

void Engine::spawn_rung(Time start, Time span, std::vector<Ref> events) {
  Rung g;
  g.start = start;
  g.width = std::max<Time>(1, span / static_cast<Time>(kFanout));
  const std::size_t nbuckets = static_cast<std::size_t>(span / g.width) + 1;
  g.buckets.assign(nbuckets, {});
  rungs_.push_back(std::move(g));
  Rung& back = rungs_.back();
  for (const Ref r : events) {
    std::size_t b =
        static_cast<std::size_t>((pool_[r].when - back.start) / back.width);
    if (b >= back.buckets.size()) b = back.buckets.size() - 1;
    back.buckets[b].push_back(r);
    ++back.count;
  }
}

void Engine::spawn_rung_from_top() {
  const Time span = top_max_ - top_min_ + 1;
  std::vector<Ref> events = std::move(top_);
  top_.clear();
  spawn_rung(top_min_, span, std::move(events));
  // Everything at or beyond the new rung's end goes back to the top tier.
  top_start_ = rungs_.back().end();
  top_min_ = kTimeMax;
  top_max_ = 0;
}

void Engine::refill() {
  for (;;) {
    while (!rungs_.empty() && rungs_.back().count == 0) rungs_.pop_back();
    if (rungs_.empty()) {
      if (top_.empty()) return;  // queue fully drained
      spawn_rung_from_top();
      continue;
    }
    Rung& g = rungs_.back();
    while (g.buckets[g.cur].empty()) ++g.cur;
    std::vector<Ref> bucket = std::move(g.buckets[g.cur]);
    g.buckets[g.cur].clear();
    const Time b_start = g.cur_start();
    ++g.cur;
    g.count -= bucket.size();
    if (bucket.size() > kSortThreshold && g.width > 1 &&
        rungs_.size() < kMaxRungs) {
      // Too many events to sort in one go: shatter the bucket into a
      // finer rung and keep descending. Each event moves at most kMaxRungs
      // times, which keeps the amortized cost O(1).
      spawn_rung(b_start, g.width, std::move(bucket));
      continue;
    }
    std::sort(bucket.begin(), bucket.end(),
              [this](Ref a, Ref b) { return earlier(a, b); });
    bottom_.assign(bucket.rbegin(), bucket.rend());
    return;
  }
}

void Engine::set_metrics(obs::MetricsRegistry* reg) {
  if (reg == nullptr) {
    m_dispatched_ = nullptr;
    m_now_s_ = nullptr;
    m_pending_ = nullptr;
    m_pool_live_ = nullptr;
    m_pool_peak_live_ = nullptr;
    m_pool_capacity_ = nullptr;
    m_pool_reserved_bytes_ = nullptr;
    return;
  }
  m_dispatched_ = &reg->counter("sim_events_dispatched_total",
                                "events executed by the discrete-event loop");
  m_now_s_ = &reg->gauge("sim_now_seconds", "simulated clock");
  m_pending_ = &reg->gauge("sim_pending_events", "events still queued");
  m_pool_live_ = &reg->gauge("sim_pool_live_events",
                             "event-pool slots currently in use");
  m_pool_peak_live_ = &reg->gauge("sim_pool_peak_live_events",
                                  "high-water mark of live event slots");
  m_pool_capacity_ = &reg->gauge("sim_pool_capacity_events",
                                 "event-pool slots allocated");
  m_pool_reserved_bytes_ = &reg->gauge("sim_pool_reserved_bytes",
                                       "event-arena memory reserved");
}

std::uint64_t Engine::run_until(Time horizon) {
  obs::ScopedPhase prof(obs::ProfilePhase::EngineDispatch);
  std::uint64_t dispatched = 0;
  for (;;) {
    if (bottom_.empty()) refill();
    if (bottom_.empty()) break;  // drained: now() stays at the last event
    const Ref r = bottom_.back();
    if (pool_[r].when > horizon) {
      // Work remains beyond the horizon: catch the clock up to it so
      // horizon-sliced drivers always make forward progress.
      if (horizon > now_) now_ = horizon;
      break;
    }
    bottom_.pop_back();
    now_ = pool_[r].when;
    cur_seq_ = pool_[r].seq;
    Callback fn = std::move(pool_[r].fn);
    pool_.release(r);
    --size_;
    fn();
    ++dispatched;
    if (m_dispatched_ != nullptr) m_dispatched_->inc();
  }
  cur_seq_ = next_seq_;
  if (m_now_s_ != nullptr) m_now_s_->set(to_seconds(now_));
  if (m_pending_ != nullptr) m_pending_->set(static_cast<double>(size_));
  if (m_pool_live_ != nullptr) {
    const EventPool::Stats ps = pool_.stats();
    m_pool_live_->set(static_cast<double>(ps.live));
    m_pool_peak_live_->set(static_cast<double>(ps.peak_live));
    m_pool_capacity_->set(static_cast<double>(ps.capacity));
    m_pool_reserved_bytes_->set(static_cast<double>(ps.bytes_reserved));
  }
  return dispatched;
}

}  // namespace mantle::sim

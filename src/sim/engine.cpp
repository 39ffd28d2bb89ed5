#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/profile.hpp"

namespace mantle::sim {

EventId Engine::schedule_at(Time when, Callback fn) {
  if (when < now_) when = now_;
  if (when == kTimeMax) {
    // "Never" sentinel: the event is disabled, not deferred. Dropping it
    // here (instead of parking it forever) keeps empty()/pending() honest
    // and the drop is deterministic — it depends only on `when`.
    ++saturated_;
    return {};
  }
  const std::uint64_t seq = next_seq_++;
  const EventPool::Ref r = pool_.alloc(seq, std::move(fn));
  heap_.push_back({when, r});
  std::push_heap(heap_.begin(), heap_.end(), later());
  return {r, seq};
}

void Engine::cancel(EventId id) {
  if (id.ref == EventPool::kNullRef) return;
  EventPool::Event& e = pool_[id.ref];
  // An empty callback means the event ran or was cancelled; a different
  // seq means the slot has been handed to a later event.
  if (e.seq != id.seq || !e.fn) return;
  e.fn.reset();
  ++cancelled_;
  if (cancelled_ <= heap_.size() - cancelled_) return;
  // Cancelled keys outnumber live ones: rebuild the heap without them, so
  // its size stays within twice the live count. Keys are unique, so the
  // rebuilt heap pops in the same (when, seq) order. erase_if applies the
  // predicate once per key, which returns each dropped key's slot.
  std::erase_if(heap_, [this](const Key& k) {
    if (pool_[k.ref].fn) return false;
    pool_.release(k.ref);
    return true;
  });
  std::make_heap(heap_.begin(), heap_.end(), later());
  cancelled_ = 0;
}

void Engine::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), later());
  pool_.release(heap_.back().ref);
  heap_.pop_back();
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
  while (!heap_.empty()) {
    const Key top = heap_.front();
    EventPool::Event& ev = pool_[top.ref];
    if (!ev.fn) {  // cancelled: drop the key
      pop_top();
      --cancelled_;
      continue;
    }
    if (top.when > horizon) {
      // Work remains beyond the horizon: catch the clock up to it so
      // horizon-sliced drivers always make forward progress.
      if (horizon > now_) now_ = horizon;
      break;
    }
    now_ = top.when;
    cur_seq_ = ev.seq;
    Callback fn = std::move(ev.fn);
    pop_top();
    fn();
    ++dispatched;
    if (m_dispatched_ != nullptr) m_dispatched_->inc();
  }
  cur_seq_ = next_seq_;
  if (m_now_s_ != nullptr) m_now_s_->set(to_seconds(now_));
  if (m_pending_ != nullptr) m_pending_->set(static_cast<double>(pending()));
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

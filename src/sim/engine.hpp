#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "obs/metrics.hpp"

/// \file engine.hpp
/// Deterministic discrete-event engine. Events scheduled for the same
/// timestamp fire in scheduling order (FIFO by sequence number), so a run
/// is a pure function of its inputs and seeds — which is exactly what the
/// Figure 4 reproduction needs: the paper shows CephFS balancing is *not*
/// reproducible run to run, and we reproduce that by varying only seeds.
///
/// Events live in an arena (`EventPool`): fixed chunks recycled through a
/// free list, so steady-state scheduling performs no per-event allocation.
/// The queue is one binary min-heap of (when, slot) keys in (when, seq)
/// order, checked against a reference heap by a property test
/// (docs/PERFORMANCE.md, "One heap, and cancel"). A continuation that can no longer act (a
/// retry timeout whose op resolved, the service continuation of an MDS
/// that crashed) is cancelled, not left to fire: cancel() destroys its
/// callback at once, and its key leaves the heap when it reaches the top,
/// or sooner, when cancelled keys outnumber live ones and the heap is
/// rebuilt without them. The heap therefore stays O(live events).
///
/// Callbacks are `sim::Callback`: a move-only type-erased function with
/// 48 bytes of inline storage (heap fallback for oversized captures), so
/// the common `[this]`-style continuations never touch the allocator.
///
/// This is the simulator's only engine. The cluster, clients, populations
/// and fault injectors all schedule onto one queue and read one clock, so
/// every run has exactly one (when, seq) dispatch order.

namespace mantle::sim {

using mantle::Time;

/// "Never": the saturation sentinel for schedule_after overflow. An event
/// scheduled exactly at kTimeMax is treated as disabled and dropped (its
/// callback is destroyed, never invoked) — the deterministic analogue of a
/// timer armed for the end of time.
inline constexpr Time kTimeMax = ~Time{0};

/// Move-only callable with inline storage. Anything invocable as `void()`
/// fits; captures larger than kInlineSize (or with throwing moves) fall
/// back to a single heap cell. Replaces `std::function` on the event hot
/// path: no copy requirement, no allocation for small captures, and
/// dispatch is a plain move out of the pool slot.
class Callback {
 public:
  static constexpr std::size_t kInlineSize = 48;

  Callback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>,
                                Callback> &&
                std::is_invocable_r_v<void,
                                      std::remove_cv_t<std::remove_reference_t<F>>&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cv_t<std::remove_reference_t<F>>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& o) noexcept { move_from(o); }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static inline const Ops kInlineOps = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* src, void* dst) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
  };

  template <typename Fn>
  static inline const Ops kHeapOps = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* src, void* dst) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); },
  };

  void move_from(Callback& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(o.buf_, buf_);
      o.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// Chunked arena of events with a free-list: slots are recycled, never
/// returned to the allocator, so a long run's event traffic is served out
/// of a handful of fixed chunks. Refs are 32-bit indices.
class EventPool {
 public:
  using Ref = std::uint32_t;
  static constexpr Ref kNullRef = 0xffffffffu;

  /// The seq orders same-time events in the queue. A slot keeps the seq
  /// of the last event it held after that event ran or was cancelled, so
  /// a stale EventId can tell it apart from the slot's next tenant. The
  /// event's time lives only in the queue key.
  struct Event {
    std::uint64_t seq = 0;
    Callback fn;
  };

  struct Stats {
    std::size_t live = 0;        ///< slots in use, cancelled but queued too
    std::size_t peak_live = 0;   ///< high-water mark of `live`
    std::size_t capacity = 0;    ///< slots reserved across all chunks
    std::size_t bytes_reserved = 0;  ///< arena + free-list footprint
  };

  Ref alloc(std::uint64_t seq, Callback fn) {
    if (free_.empty()) grow();
    const Ref r = free_.back();
    free_.pop_back();
    Event& e = (*this)[r];
    e.seq = seq;
    e.fn = std::move(fn);
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return r;
  }

  void release(Ref r) {
    (*this)[r].fn.reset();
    free_.push_back(r);
    --live_;
  }

  Event& operator[](Ref r) {
    return chunks_[r >> kChunkShift][r & kChunkMask];
  }
  const Event& operator[](Ref r) const {
    return chunks_[r >> kChunkShift][r & kChunkMask];
  }

  Stats stats() const {
    Stats s;
    s.live = live_;
    s.peak_live = peak_live_;
    s.capacity = chunks_.size() * kChunkSize;
    s.bytes_reserved = chunks_.size() * kChunkSize * sizeof(Event) +
                       free_.capacity() * sizeof(Ref);
    return s;
  }

 private:
  static constexpr unsigned kChunkShift = 12;  // 4096 events per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr Ref kChunkMask = static_cast<Ref>(kChunkSize - 1);

  void grow() {
    const Ref base = static_cast<Ref>(chunks_.size() * kChunkSize);
    chunks_.push_back(std::make_unique<Event[]>(kChunkSize));
    free_.reserve(free_.size() + kChunkSize);
    // Pushed high-to-low so fresh slots are handed out in ascending order
    // (cosmetic: keeps early refs cache-adjacent). Dispatch order never
    // depends on ref values, only on (when, seq).
    for (std::size_t i = kChunkSize; i > 0; --i)
      free_.push_back(base + static_cast<Ref>(i - 1));
  }

  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::vector<Ref> free_;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

/// Handle to a scheduled event, for Engine::cancel(): its pool slot and
/// its seq. A default-constructed id is null.
struct EventId {
  EventPool::Ref ref = EventPool::kNullRef;
  std::uint64_t seq = 0;
};

class Engine {
 public:
  using Callback = sim::Callback;

  Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `when` (>= now; earlier times are
  /// clamped to now). Scheduling at kTimeMax means "never": the callback
  /// is dropped (destroyed, not invoked), saturated_events() is bumped and
  /// the returned id is null.
  EventId schedule_at(Time when, Callback fn);

  /// Schedule `fn` after a delay from now. `now + delay` saturates at the
  /// kTimeMax horizon sentinel instead of wrapping: a huge delay (e.g. a
  /// disabled-timeout sentinel) parks the event at "never" rather than
  /// scheduling it in the past.
  EventId schedule_after(Time delay, Callback fn) {
    Time when = now_ + delay;
    if (when < now_) when = kTimeMax;  // unsigned wrap: saturate
    return schedule_at(when, std::move(fn));
  }

  /// Cancel an event that has not run yet: its callback is destroyed,
  /// never invoked, and it no longer counts as pending. A no-op for a null
  /// id, for an event that already ran or was already cancelled, and for
  /// an id whose pool slot now holds a later event. Seqs are not reused,
  /// so cancelling changes no other event's (when, seq).
  void cancel(EventId id);

  /// Take the next sequence number without scheduling anything. The seq
  /// is never dispatched, but it shifts every later seq exactly as a
  /// scheduled event would: work that is deferred instead of scheduled
  /// keys itself (when, seq) like the event it replaces and compares that
  /// key against the dispatch point (now(), current_seq()).
  std::uint64_t reserve_seq() noexcept { return next_seq_++; }

  /// The seq half of the dispatch point. Inside a callback it is the seq
  /// of the event being dispatched; between run_until() calls it is the
  /// first seq that was not yet handed out when the last call returned.
  /// An event keyed (when, seq) has been dispatched iff (when, seq) <
  /// (now(), current_seq()).
  std::uint64_t current_seq() const noexcept { return cur_seq_; }

  /// Run until no event is pending or the horizon is reached. Returns the
  /// number of events dispatched. Every event with `when <= horizon`
  /// fires; on return `now()` is the horizon when work remains pending
  /// beyond it (the clock catches up to the horizon), or the time of the
  /// last dispatched event when the queue drained first.
  std::uint64_t run_until(Time horizon);

  /// Drain everything (no horizon).
  std::uint64_t run() { return run_until(kTimeMax); }

  /// Live events only: cancelled ones are not pending.
  bool empty() const { return pending() == 0; }
  std::size_t pending() const { return heap_.size() - cancelled_; }

  /// Events dropped by the kTimeMax "never" saturation.
  std::uint64_t saturated_events() const { return saturated_; }

  /// Arena footprint: live/peak event counts and bytes reserved — the
  /// peak-RSS proxy reported by bench/fig_scale. A cancelled event keeps
  /// its slot until its key leaves the heap.
  EventPool::Stats pool_stats() const { return pool_.stats(); }

  /// Attach a metrics registry: the engine keeps a dispatched-event
  /// counter and clock/queue gauges fresh. Caller keeps ownership;
  /// nullptr detaches.
  void set_metrics(obs::MetricsRegistry* reg);

 private:
  /// A queued event: its time and its pool slot, 16 bytes. The seq that
  /// breaks ties in `when` is read from the slot; keys that carried it
  /// too (24 bytes) made `compile16` about 4% slower.
  struct Key {
    Time when = 0;
    EventPool::Ref ref = EventPool::kNullRef;
  };

  /// Heap order. The heap functions keep the greatest key on top, so
  /// "greater" means "fires later" and the top is the earliest
  /// (when, seq).
  struct Later {
    const EventPool* pool;
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return (*pool)[a.ref].seq > (*pool)[b.ref].seq;
    }
  };
  Later later() const { return {&pool_}; }

  /// Remove the top key and return its slot to the pool.
  void pop_top();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cur_seq_ = 0;
  std::uint64_t saturated_ = 0;

  EventPool pool_;
  std::vector<Key> heap_;
  std::size_t cancelled_ = 0;  // keys in heap_ whose callback was cancelled

  // Cached handles into the attached registry (null = not attached).
  obs::Counter* m_dispatched_ = nullptr;
  obs::Gauge* m_now_s_ = nullptr;
  obs::Gauge* m_pending_ = nullptr;
  obs::Gauge* m_pool_live_ = nullptr;
  obs::Gauge* m_pool_peak_live_ = nullptr;
  obs::Gauge* m_pool_capacity_ = nullptr;
  obs::Gauge* m_pool_reserved_bytes_ = nullptr;
};

}  // namespace mantle::sim

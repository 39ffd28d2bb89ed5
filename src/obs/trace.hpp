#pragma once

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.hpp"

/// \file trace.hpp
/// The tracing half of the observability layer: a bounded, append-only
/// sink of typed events with *simulated* timestamps. Everything an
/// operator would want on a timeline when debugging a balancing run goes
/// through here — per-tick heartbeat summaries, the when/where decisions
/// with their inputs and totals, the 2PC export phases, dirfrag
/// split/merge, crash/takeover/replay, dead-letter parking and fault
/// injections. Each tick's per-target howmuch outcome is recorded once, in
/// the tick's provenance record (obs/provenance.hpp), which carries the
/// tick's span. Because timestamps come from the discrete-event clock and
/// payloads are appended in dispatch order, two identical seeded runs
/// (faults included) serialize to byte-identical JSON.
///
/// Events are *causal*: every client op, 2PC migration, balancer tick and
/// crash-recovery episode is assigned a monotonic span id (allocated from
/// this sink, so two identical runs number spans identically), and events
/// belonging to the same episode carry that id. `parent` links a span to
/// the span that caused it (a migration to the balancer tick that decided
/// it). to_perfetto() renders the same timeline in Chrome-trace JSON so a
/// dump opens in ui.perfetto.dev as one track per MDS rank.

namespace mantle::obs {

using mantle::Time;

enum class EventKind : int {
  HeartbeatSent = 0,  ///< per sender tick: its payload and fan-out counts
  HeartbeatReceived,  ///< per receiver tick: deliveries since the last one
  WhenDecision,
  WhereDecision,
  ExportStart,
  ExportCommit,
  ExportAbort,
  DirfragSplit,
  DirfragMerge,
  DeadLetterParked,
  DeadLetterFlushed,
  Crash,
  Restart,
  TakeoverStart,
  TakeoverComplete,
  ReplayComplete,
  FaultInjected,
  PolicyRecompile,
  ExportRetry,             ///< aborted 2PC export re-attempted after backoff
  InvariantViolation,      ///< chaos invariant checker caught a violation
  // Keep kLastEventKind in sync when appending kinds.
};

inline constexpr EventKind kLastEventKind = EventKind::InvariantViolation;

const char* event_kind_name(EventKind kind);

/// Span ids are positive; kNoSpan marks an event outside any span.
using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

/// One timeline entry. `rank` is the subject MDS, `peer` the other end
/// (importer, heartbeat receiver, takeover survivor, ...); -1 = n/a.
/// `detail` is a short deterministic string (dirfrag id, fault kind);
/// `fields` carries the numeric inputs/outputs of the event in
/// append order. `span` groups events of one causal episode (a client
/// op, a 2PC migration, a balancer tick, a crash-recovery sequence);
/// `parent` is the span that caused this one, if any.
struct TraceEvent {
  Time at = 0;
  EventKind kind = EventKind::HeartbeatSent;
  int rank = -1;
  int peer = -1;
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
  std::string detail;
  std::vector<std::pair<std::string, double>> fields;
};

/// A timeline: recorded by a TraceSink, parsed back from a dump, or built
/// by hand. A deque grows in small fixed blocks, so a long trace never
/// asks the heap for one large contiguous block (48 MB for the 455k
/// events of a 512-rank run). Where such a block lands depends on what
/// earlier runs in the same process left on the heap, and with it where
/// the dumps written after it land and how much memory ends up
/// resident.
using TraceEvents = std::deque<TraceEvent>;

/// One sink belongs to one scenario, which runs on one thread, so it
/// takes no lock and hands out its stored events by reference.
class TraceSink {
 public:
  /// `capacity` bounds memory on long runs; once full, new events are
  /// counted in dropped_events() instead of stored (the cap itself is
  /// deterministic, so bounded timelines still compare byte-for-byte).
  explicit TraceSink(std::size_t capacity = std::size_t{1} << 20)
      : capacity_(capacity) {}

  void record(TraceEvent ev);

  /// Convenience builder for call sites. Stores exactly what record()
  /// would, but checks the capacity first: a full sink counts the drop
  /// without building the event's detail string or field vector.
  void event(Time at, EventKind kind, int rank = -1, int peer = -1,
             std::string_view detail = {},
             std::initializer_list<std::pair<const char*, double>> fields = {},
             SpanId span = kNoSpan, SpanId parent = kNoSpan);

  /// Allocate the next causal span id. Allocation order follows event
  /// dispatch order, so identical seeded runs number spans identically.
  SpanId next_span() { return static_cast<SpanId>(++next_span_); }
  /// Spans allocated so far (equals the largest id handed out).
  std::uint64_t spans_allocated() const { return next_span_; }

  std::size_t size() const { return events_.size(); }
  std::uint64_t dropped_events() const { return dropped_; }
  /// The stored timeline, in record order.
  const TraceEvents& events() const { return events_; }

  /// The whole timeline as one JSON array of event objects.
  std::string to_json() const;

  /// The timeline in Chrome-trace/Perfetto JSON: one track (tid) per MDS
  /// rank under a single "mantle" process, migrations as async
  /// begin/end pairs keyed by span id, everything else as instants.
  /// Open the dump directly in ui.perfetto.dev or chrome://tracing.
  ///
  /// The default (no profiler) output is a pure function of the
  /// recorded events and stays byte-identical across same-seed runs.
  /// Passing a Profiler additionally appends one wall-clock counter
  /// track per phase ("profile:<phase>") — that overload is for the
  /// opt-in MANTLE_PROFILE_DUMP side files only, never the
  /// deterministic dumps.
  std::string to_perfetto() const;
  std::string to_perfetto(const class Profiler* profiler) const;

  /// The byte counts each writer reserves before it writes: upper bounds
  /// on to_json() and to_perfetto(profiler), counting literal text and
  /// strings exactly, kMaxNumberChars per number and kMaxIntegerChars
  /// per integer (obs/json.hpp).
  std::size_t json_bound() const;
  std::size_t perfetto_bound(const class Profiler* profiler) const;

 private:
  std::size_t capacity_;
  TraceEvents events_;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_span_ = 0;
};

}  // namespace mantle::obs

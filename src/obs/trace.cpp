#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <type_traits>

#include "obs/json.hpp"
#include "obs/profile.hpp"

namespace mantle::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::HeartbeatSent: return "hb-sent";
    case EventKind::HeartbeatReceived: return "hb-received";
    case EventKind::WhenDecision: return "when";
    case EventKind::WhereDecision: return "where";
    case EventKind::ExportStart: return "export-start";
    case EventKind::ExportCommit: return "export-commit";
    case EventKind::ExportAbort: return "export-abort";
    case EventKind::DirfragSplit: return "dirfrag-split";
    case EventKind::DirfragMerge: return "dirfrag-merge";
    case EventKind::DeadLetterParked: return "dead-letter-parked";
    case EventKind::DeadLetterFlushed: return "dead-letter-flushed";
    case EventKind::Crash: return "crash";
    case EventKind::Restart: return "restart";
    case EventKind::TakeoverStart: return "takeover-start";
    case EventKind::TakeoverComplete: return "takeover-complete";
    case EventKind::ReplayComplete: return "replay-complete";
    case EventKind::FaultInjected: return "fault-injected";
    case EventKind::PolicyRecompile: return "policy-recompile";
    case EventKind::ExportRetry: return "export-retry";
    case EventKind::InvariantViolation: return "invariant-violation";
  }
  return "?";
}

void TraceSink::record(TraceEvent ev) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

void TraceSink::event(
    Time at, EventKind kind, int rank, int peer, std::string_view detail,
    std::initializer_list<std::pair<const char*, double>> fields, SpanId span,
    SpanId parent) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  TraceEvent& ev = events_.emplace_back();
  ev.at = at;
  ev.kind = kind;
  ev.rank = rank;
  ev.peer = peer;
  ev.span = span;
  ev.parent = parent;
  ev.detail = detail;
  ev.fields.reserve(fields.size());
  for (const auto& [k, v] : fields) ev.fields.emplace_back(k, v);
}

namespace {

/// One `"key":value` member, preceded by a comma unless it opens its
/// object: a string, an integer or a number. Both trace documents write
/// every member of an event past its fixed head through here.
template <class Out, class Value>
void field(Out& out, bool& first, std::string_view key, const Value& v) {
  if (!first) out.raw(',');
  first = false;
  out.string(key);
  out.raw(':');
  if constexpr (std::is_same_v<Value, std::string>)
    out.string(v);
  else if constexpr (std::is_integral_v<Value>)
    out.integer(v);
  else
    out.number(v);
}

template <class Out>
void write_json(Out& out, const TraceEvents& events) {
  out.raw('[');
  bool first_ev = true;
  for (const TraceEvent& ev : events) {
    if (!first_ev) out.raw(',');
    first_ev = false;
    out.raw("{\"t_us\":");
    out.integer(ev.at);
    out.raw(",\"kind\":\"");
    out.raw(event_kind_name(ev.kind));
    out.raw('"');
    bool first = false;
    if (ev.rank >= 0) field(out, first, "rank", ev.rank);
    if (ev.peer >= 0) field(out, first, "peer", ev.peer);
    if (ev.span >= 0) field(out, first, "span", ev.span);
    if (ev.parent >= 0) field(out, first, "parent", ev.parent);
    if (!ev.detail.empty()) field(out, first, "detail", ev.detail);
    if (!ev.fields.empty()) {
      out.raw(",\"fields\":{");
      bool first_f = true;
      for (const auto& [k, v] : ev.fields) field(out, first_f, k, v);
      out.raw('}');
    }
    out.raw('}');
  }
  out.raw(']');
}

/// What the Perfetto document needs beyond the events, computed once for
/// both passes of write_reserved.
struct PerfettoScope {
  int max_rank = -1;
  Time t_end = 0;
  bool profiled = false;
  std::array<Profiler::PhaseStats, kNumProfilePhases> phases{};
};

template <class Out>
void write_perfetto(Out& out, const TraceEvents& events,
                    const PerfettoScope& scope) {
  // Ranks become threads of one "mantle" process; rank -1 (cluster-wide
  // events) maps to tid 0, rank r to tid r+1.
  out.raw(
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
      "\"args\":{\"name\":\"mantle\"}}"
      ",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"cluster\"}}");
  for (int r = 0; r <= scope.max_rank; ++r) {
    out.raw(",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":");
    out.integer(r + 1);
    out.raw(",\"args\":{\"name\":\"mds");
    out.integer(r);
    out.raw("\"}}");
  }

  const auto append_common = [&](const TraceEvent& ev) {
    out.raw(",\"ts\":");
    out.integer(ev.at);
    out.raw(",\"pid\":0,\"tid\":");
    out.integer(ev.rank + 1);
    out.raw(",\"args\":{");
    bool first = true;
    if (ev.peer >= 0) field(out, first, "peer", ev.peer);
    if (ev.span >= 0) field(out, first, "span", ev.span);
    if (ev.parent >= 0) field(out, first, "parent", ev.parent);
    if (!ev.detail.empty()) field(out, first, "detail", ev.detail);
    for (const auto& [k, v] : ev.fields) field(out, first, k, v);
    out.raw("}}");
  };

  for (const TraceEvent& ev : events) {
    // Migrations with a span additionally render as async begin/end pairs
    // (Perfetto pairs them on (cat, id)), so each 2PC export shows as a
    // bar spanning start -> commit/abort on the exporter's track.
    const bool begins = ev.kind == EventKind::ExportStart;
    const bool ends = ev.kind == EventKind::ExportCommit ||
                      ev.kind == EventKind::ExportAbort;
    if ((begins || ends) && ev.span >= 0) {
      out.raw(begins ? ",{\"ph\":\"b\"" : ",{\"ph\":\"e\"");
      out.raw(",\"cat\":\"migration\",\"id\":");
      out.integer(ev.span);
      out.raw(",\"name\":\"migration\"");
      append_common(ev);
    }
    out.raw(",{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"mantle\",\"name\":\"");
    out.raw(event_kind_name(ev.kind));
    out.raw('"');
    append_common(ev);
  }

  // Wall-clock phase counter tracks (opt-in overload only): one
  // "profile:<phase>" track per phase, sampled at the start and end of
  // the simulated timeline so the cumulative wall/self milliseconds
  // render as counters alongside the event tracks.
  if (scope.profiled) {
    for (int i = 0; i < kNumProfilePhases; ++i) {
      const Profiler::PhaseStats& s = scope.phases[i];
      const auto sample = [&](Time ts, double wall_ms, double self_ms) {
        // printf's "%.3f"; at most 2^64 ns in ms, 18 bytes. The sizer
        // counts this text exactly, so both passes format it.
        const auto ms = [&](double x) {
          char buf[32];
          const char* end =
              std::to_chars(buf, buf + sizeof(buf), x,
                            std::chars_format::fixed, 3)
                  .ptr;
          out.raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
        };
        out.raw(",{\"ph\":\"C\",\"name\":\"profile:");
        out.raw(profile_phase_name(static_cast<ProfilePhase>(i)));
        out.raw("\",\"pid\":0,\"ts\":");
        out.integer(ts);
        out.raw(",\"args\":{\"self_ms\":");
        ms(self_ms);
        out.raw(",\"wall_ms\":");
        ms(wall_ms);
        out.raw("}}");
      };
      sample(0, 0.0, 0.0);
      sample(scope.t_end, static_cast<double>(s.wall_ns) / 1e6,
             static_cast<double>(s.self_ns) / 1e6);
    }
  }
  out.raw("]}");
}

PerfettoScope perfetto_scope(const TraceEvents& events,
                             const Profiler* profiler) {
  PerfettoScope scope;
  for (const TraceEvent& ev : events)
    scope.max_rank = std::max({scope.max_rank, ev.rank, ev.peer});
  if (profiler != nullptr) {
    scope.profiled = true;
    // One snapshot for both passes: other threads may still be charging
    // the profiler, and the bound must count the text that is written.
    scope.phases = profiler->snapshot();
    for (const TraceEvent& ev : events) scope.t_end = std::max(scope.t_end, ev.at);
  }
  return scope;
}

}  // namespace

std::string TraceSink::to_json() const {
  return write_reserved([&](auto& out) { write_json(out, events_); });
}

std::size_t TraceSink::json_bound() const {
  return size_bound([&](auto& out) { write_json(out, events_); });
}

std::string TraceSink::to_perfetto() const { return to_perfetto(nullptr); }

std::string TraceSink::to_perfetto(const Profiler* profiler) const {
  const PerfettoScope scope = perfetto_scope(events_, profiler);
  return write_reserved(
      [&](auto& out) { write_perfetto(out, events_, scope); });
}

std::size_t TraceSink::perfetto_bound(const Profiler* profiler) const {
  const PerfettoScope scope = perfetto_scope(events_, profiler);
  return size_bound([&](auto& out) { write_perfetto(out, events_, scope); });
}

}  // namespace mantle::obs

#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/profile.hpp"

namespace mantle::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::HeartbeatSent: return "hb-sent";
    case EventKind::HeartbeatReceived: return "hb-received";
    case EventKind::WhenDecision: return "when";
    case EventKind::WhereDecision: return "where";
    case EventKind::HowmuchDecision: return "howmuch";
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
    case EventKind::ProvenanceRecorded: return "provenance-decision";
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

std::string TraceSink::to_json() const {
  std::string out = "[";
  char buf[64];
  bool first_ev = true;
  for (const TraceEvent& ev : events_) {
    if (!first_ev) out += ",";
    first_ev = false;
    std::snprintf(buf, sizeof(buf), "%" PRIu64, ev.at);
    out += "{\"t_us\":";
    out += buf;
    out += ",\"kind\":\"";
    out += event_kind_name(ev.kind);
    out += "\"";
    if (ev.rank >= 0) {
      std::snprintf(buf, sizeof(buf), ",\"rank\":%d", ev.rank);
      out += buf;
    }
    if (ev.peer >= 0) {
      std::snprintf(buf, sizeof(buf), ",\"peer\":%d", ev.peer);
      out += buf;
    }
    if (ev.span >= 0) {
      std::snprintf(buf, sizeof(buf), ",\"span\":%" PRId64, ev.span);
      out += buf;
    }
    if (ev.parent >= 0) {
      std::snprintf(buf, sizeof(buf), ",\"parent\":%" PRId64, ev.parent);
      out += buf;
    }
    if (!ev.detail.empty()) out += ",\"detail\":" + json_string(ev.detail);
    if (!ev.fields.empty()) {
      out += ",\"fields\":{";
      bool first_f = true;
      for (const auto& [k, v] : ev.fields) {
        if (!first_f) out += ",";
        first_f = false;
        out += json_string(k) + ":" + format_metric_value(v);
      }
      out += "}";
    }
    out += "}";
  }
  out += "]";
  return out;
}

std::string TraceSink::to_perfetto() const { return to_perfetto(nullptr); }

std::string TraceSink::to_perfetto(const Profiler* profiler) const {
  char buf[96];
  // Ranks become threads of one "mantle" process; rank -1 (cluster-wide
  // events) maps to tid 0, rank r to tid r+1.
  int max_rank = -1;
  for (const TraceEvent& ev : events_)
    max_rank = std::max({max_rank, ev.rank, ev.peer});

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out +=
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
      "\"args\":{\"name\":\"mantle\"}}";
  out +=
      ",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"cluster\"}}";
  for (int r = 0; r <= max_rank; ++r) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,"
                  "\"tid\":%d,\"args\":{\"name\":\"mds%d\"}}",
                  r + 1, r);
    out += buf;
  }

  const auto append_common = [&](const TraceEvent& ev) {
    std::snprintf(buf, sizeof(buf), ",\"ts\":%" PRIu64 ",\"pid\":0,\"tid\":%d",
                  ev.at, ev.rank + 1);
    out += buf;
    out += ",\"args\":{";
    bool first = true;
    const auto arg = [&](const std::string& k, const std::string& v) {
      if (!first) out += ",";
      first = false;
      out += json_string(k) + ":" + v;
    };
    if (ev.peer >= 0) arg("peer", std::to_string(ev.peer));
    if (ev.span >= 0) arg("span", std::to_string(ev.span));
    if (ev.parent >= 0) arg("parent", std::to_string(ev.parent));
    if (!ev.detail.empty()) arg("detail", json_string(ev.detail));
    for (const auto& [k, v] : ev.fields) arg(k, format_metric_value(v));
    out += "}}";
  };

  for (const TraceEvent& ev : events_) {
    // Migrations with a span additionally render as async begin/end pairs
    // (Perfetto pairs them on (cat, id)), so each 2PC export shows as a
    // bar spanning start -> commit/abort on the exporter's track.
    const bool begins = ev.kind == EventKind::ExportStart;
    const bool ends = ev.kind == EventKind::ExportCommit ||
                      ev.kind == EventKind::ExportAbort;
    if ((begins || ends) && ev.span >= 0) {
      std::snprintf(buf, sizeof(buf),
                    ",{\"ph\":\"%s\",\"cat\":\"migration\",\"id\":%" PRId64
                    ",\"name\":\"migration\"",
                    begins ? "b" : "e", ev.span);
      out += buf;
      append_common(ev);
    }
    out += ",{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"mantle\",\"name\":\"";
    out += event_kind_name(ev.kind);
    out += "\"";
    append_common(ev);
  }

  // Wall-clock phase counter tracks (opt-in overload only): one
  // "profile:<phase>" track per phase, sampled at the start and end of
  // the simulated timeline so the cumulative wall/self milliseconds
  // render as counters alongside the event tracks.
  if (profiler != nullptr) {
    Time t_end = 0;
    for (const TraceEvent& ev : events_) t_end = std::max(t_end, ev.at);
    for (int i = 0; i < kNumProfilePhases; ++i) {
      const auto phase = static_cast<ProfilePhase>(i);
      const Profiler::PhaseStats s = profiler->stats(phase);
      const auto sample = [&](Time ts, double wall_ms, double self_ms) {
        char cbuf[192];
        std::snprintf(cbuf, sizeof(cbuf),
                      ",{\"ph\":\"C\",\"name\":\"profile:%s\",\"pid\":0,"
                      "\"ts\":%" PRIu64 ",\"args\":{\"self_ms\":%.3f,"
                      "\"wall_ms\":%.3f}}",
                      profile_phase_name(phase), ts, self_ms, wall_ms);
        out += cbuf;
      };
      sample(0, 0.0, 0.0);
      sample(t_end, static_cast<double>(s.wall_ns) / 1e6,
             static_cast<double>(s.self_ns) / 1e6);
    }
  }
  out += "]}";
  return out;
}

}  // namespace mantle::obs

#include "obs/analyze.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/json.hpp"

namespace mantle::obs {

namespace {

using jsonr::JsonValue;

bool event_kind_from_name(const std::string& name, EventKind& out) {
  // Iterate through the *last* kind, not a hard-coded one: stopping at
  // FaultInjected silently dropped policy-recompile events from parsed
  // dumps (found by the shadow-replay round-trip tests).
  for (int k = static_cast<int>(EventKind::HeartbeatSent);
       k <= static_cast<int>(kLastEventKind); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (name == event_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

double field(const TraceEvent& ev, const char* name, double fallback = 0.0) {
  for (const auto& [k, v] : ev.fields)
    if (k == name) return v;
  return fallback;
}

bool has_field(const TraceEvent& ev, const char* name) {
  for (const auto& [k, v] : ev.fields)
    if (k == name) return true;
  return false;
}

/// Fragment depth (bits) from a DirFragId string "ino.0xXXXXXXXX/bits";
/// -1 if unparseable.
int frag_bits_of(const std::string& detail) {
  const std::size_t slash = detail.rfind('/');
  if (slash == std::string::npos || slash + 1 >= detail.size()) return -1;
  int bits = 0;
  for (std::size_t i = slash + 1; i < detail.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(detail[i])) == 0) return -1;
    bits = bits * 10 + (detail[i] - '0');
  }
  return bits;
}

}  // namespace

// ---------------------------------------------------------------------------
// Parsers
// ---------------------------------------------------------------------------

std::vector<TraceEvent> parse_trace_json(const std::string& json) {
  std::vector<TraceEvent> out;
  const JsonValue root = jsonr::parse(json);
  if (root.type != JsonValue::Type::Array) return out;
  for (const JsonValue& e : root.arr) {
    if (e.type != JsonValue::Type::Object) continue;
    const JsonValue* kind = e.get("kind");
    if (kind == nullptr || kind->type != JsonValue::Type::String) continue;
    TraceEvent ev;
    if (!event_kind_from_name(kind->str, ev.kind)) continue;
    if (const JsonValue* v = e.get("t_us")) ev.at = static_cast<Time>(v->num);
    if (const JsonValue* v = e.get("rank")) ev.rank = static_cast<int>(v->num);
    if (const JsonValue* v = e.get("peer")) ev.peer = static_cast<int>(v->num);
    if (const JsonValue* v = e.get("span"))
      ev.span = static_cast<SpanId>(v->num);
    if (const JsonValue* v = e.get("parent"))
      ev.parent = static_cast<SpanId>(v->num);
    if (const JsonValue* v = e.get("detail")) ev.detail = v->str;
    if (const JsonValue* f = e.get("fields");
        f != nullptr && f->type == JsonValue::Type::Object)
      for (const auto& [k, v] : f->obj) ev.fields.emplace_back(k, v.num);
    out.push_back(std::move(ev));
  }
  return out;
}

std::map<std::string, double> parse_metrics_counters(const std::string& json) {
  return parse_metrics_json(json).counters;
}

MetricsSnapshot parse_metrics_json(const std::string& json) {
  MetricsSnapshot out;
  const JsonValue root = jsonr::parse(json);
  if (const JsonValue* counters = root.get("counters");
      counters != nullptr && counters->type == JsonValue::Type::Object)
    for (const auto& [k, v] : counters->obj)
      if (v.type == JsonValue::Type::Number) out.counters[k] = v.num;
  if (const JsonValue* gauges = root.get("gauges");
      gauges != nullptr && gauges->type == JsonValue::Type::Object)
    for (const auto& [k, v] : gauges->obj)
      if (v.type == JsonValue::Type::Number) out.gauges[k] = v.num;
  if (const JsonValue* hists = root.get("histograms");
      hists != nullptr && hists->type == JsonValue::Type::Object)
    for (const auto& [k, v] : hists->obj) {
      if (v.type != JsonValue::Type::Object) continue;
      HistogramSummary s;
      if (const JsonValue* x = v.get("count"))
        s.count = static_cast<std::uint64_t>(x->num);
      if (const JsonValue* x = v.get("sum")) s.sum = x->num;
      if (const JsonValue* q = v.get("quantiles");
          q != nullptr && q->type == JsonValue::Type::Object) {
        if (const JsonValue* x = q->get("p50")) s.p50 = x->num;
        if (const JsonValue* x = q->get("p95")) s.p95 = x->num;
        if (const JsonValue* x = q->get("p99")) s.p99 = x->num;
      }
      out.histograms[k] = s;
    }
  return out;
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

Report analyze(const TraceSink& sink, const AnalyzeConfig& cfg,
               const std::map<std::string, double>* counters) {
  return analyze(sink.snapshot(), cfg, counters);
}

Report analyze(const std::vector<TraceEvent>& events, const AnalyzeConfig& cfg,
               const MetricsSnapshot& metrics) {
  Report rep = analyze(events, cfg, &metrics.counters);
  const auto gauge = [&](const char* name, double& out) {
    const auto it = metrics.gauges.find(name);
    if (it == metrics.gauges.end()) return false;
    out = it->second;
    return true;
  };
  if (gauge("sim_pool_peak_live_events", rep.pool_peak_live)) {
    rep.has_pool = true;
    gauge("sim_pool_live_events", rep.pool_live);
    gauge("sim_pool_capacity_events", rep.pool_capacity);
    gauge("sim_pool_reserved_bytes", rep.pool_reserved_bytes);
  }
  for (const auto& [name, s] : metrics.histograms)
    rep.histogram_rows.push_back({name, s});
  return rep;
}

Report analyze(const std::vector<TraceEvent>& events, const AnalyzeConfig& cfg,
               const std::map<std::string, double>* counters) {
  Report rep;
  rep.events = events.size();
  const Time tick_us = cfg.tick > 0 ? cfg.tick : kSec;

  // Pass 1: extent of the run.
  Time t_end = 0;
  int max_rank = -1;
  std::vector<SpanId> span_ids;
  for (const TraceEvent& ev : events) {
    t_end = std::max(t_end, ev.at);
    max_rank = std::max({max_rank, ev.rank, ev.peer});
    if (ev.span >= 0) span_ids.push_back(ev.span);
  }
  std::sort(span_ids.begin(), span_ids.end());
  rep.spans = static_cast<std::uint64_t>(
      std::unique(span_ids.begin(), span_ids.end()) - span_ids.begin());
  rep.num_ranks = max_rank + 1;
  rep.ticks = events.empty() ? 0 : t_end / tick_us + 1;

  const auto nranks = static_cast<std::size_t>(rep.num_ranks);
  rep.series.resize(rep.ticks);
  for (std::uint64_t t = 0; t < rep.ticks; ++t) {
    rep.series[t].tick = t;
    rep.series[t].load.assign(nranks, 0.0);
  }

  // Pass 2: series, totals, and detector state.
  // Load observations, carried forward: seen[r] is the latest load.
  std::vector<double> last_load(nranks, 0.0);
  std::vector<bool> saw_load(nranks, false);

  // Ping-pong: per subtree, the last completed direction and how many
  // quick reversals it has accumulated.
  struct LastExport {
    int from = -1;
    int to = -1;
    std::uint64_t tick = 0;
    std::uint64_t reversals = 0;
    bool reported = false;
  };
  std::map<std::string, LastExport> last_export;

  // Thrash: per rank, the current run of go-with-zero-shipped ticks.
  // `when` go=1 arms the tick; the matching `where` (same span) with
  // shipped_total <= eps extends the run, shipping anything resets it.
  std::vector<std::uint64_t> thrash_run(nranks, 0);
  std::vector<bool> thrash_reported(nranks, false);
  std::vector<SpanId> armed_span(nranks, kNoSpan);
  std::vector<Time> armed_at(nranks, 0);

  // Stuck exports: spans started and not yet finished. For traces
  // without spans (foreign or pre-span dumps) fall back to a
  // (from,to,frag) key.
  struct OpenExport {
    Time at = 0;
    std::string detail;
  };
  std::map<SpanId, OpenExport> open_spans;
  std::map<std::string, std::uint64_t> open_keyed;  // key -> open count

  const auto keyed = [](const TraceEvent& ev) {
    return std::to_string(ev.rank) + ">" + std::to_string(ev.peer) + ">" +
           ev.detail;
  };

  std::uint64_t prev_tick = 0;
  const auto flush_tick_loads = [&](std::uint64_t upto) {
    // Write carried-forward loads into every bucket up to (exclusive)
    // `upto`, then keep carrying.
    for (std::uint64_t t = prev_tick; t < upto && t < rep.ticks; ++t)
      for (std::size_t r = 0; r < nranks; ++r)
        rep.series[t].load[r] = last_load[r];
    prev_tick = std::max(prev_tick, upto);
  };

  for (const TraceEvent& ev : events) {
    const std::uint64_t tick = ev.at / tick_us;
    flush_tick_loads(tick);
    // events non-empty implies ticks >= 1, so the index is always valid.
    TickPoint& tp =
        rep.series[std::min<std::uint64_t>(tick, rep.ticks - 1)];

    switch (ev.kind) {
      case EventKind::HeartbeatSent:
        if (ev.rank >= 0 && static_cast<std::size_t>(ev.rank) < nranks &&
            has_field(ev, "load")) {
          last_load[static_cast<std::size_t>(ev.rank)] = field(ev, "load");
          saw_load[static_cast<std::size_t>(ev.rank)] = true;
        }
        break;

      case EventKind::WhenDecision: {
        if (ev.rank < 0 || static_cast<std::size_t>(ev.rank) >= nranks) break;
        const auto r = static_cast<std::size_t>(ev.rank);
        if (has_field(ev, "my_load")) {
          last_load[r] = field(ev, "my_load");
          saw_load[r] = true;
        }
        if (field(ev, "go") >= 0.5) {
          armed_span[r] = ev.span;
          armed_at[r] = ev.at;
        } else {
          armed_span[r] = kNoSpan;
          thrash_run[r] = 0;
        }
        break;
      }

      case EventKind::WhereDecision: {
        if (ev.rank < 0 || static_cast<std::size_t>(ev.rank) >= nranks) break;
        const auto r = static_cast<std::size_t>(ev.rank);
        if (armed_span[r] == kNoSpan ||
            (ev.span >= 0 && ev.span != armed_span[r]))
          break;
        armed_span[r] = kNoSpan;
        if (field(ev, "shipped_total") <= cfg.thrash_shipped_epsilon) {
          ++thrash_run[r];
          if (thrash_run[r] >= cfg.thrash_min_run && !thrash_reported[r]) {
            thrash_reported[r] = true;
            rep.anomalies.push_back(
                {"thrash", ev.at, ev.span,
                 "mds" + std::to_string(ev.rank) + " decided to migrate on " +
                     std::to_string(thrash_run[r]) +
                     " consecutive ticks but shipped ~zero load"});
          }
        } else {
          thrash_run[r] = 0;
        }
        break;
      }

      case EventKind::ExportStart: {
        ++rep.exports_started;
        ++tp.migrations;
        if (ev.span >= 0)
          open_spans[ev.span] = {ev.at, ev.detail};
        else
          ++open_keyed[keyed(ev)];

        // Ping-pong check against the last completed export of this
        // subtree: a start going straight back is a reversal, whether or
        // not it later commits — the churn cost is already paid. One
        // reversal is tolerated (load legitimately moves back after a
        // workload shift or crash); a subtree racking up
        // ping_pong_min_reversals of them is being tossed around.
        const auto it = last_export.find(ev.detail);
        if (it != last_export.end() && ev.rank == it->second.to &&
            ev.peer == it->second.from &&
            tick - it->second.tick <= cfg.ping_pong_window_ticks) {
          ++it->second.reversals;
          if (it->second.reversals >= cfg.ping_pong_min_reversals &&
              !it->second.reported) {
            it->second.reported = true;
            rep.anomalies.push_back(
                {"ping-pong", ev.at, ev.span,
                 ev.detail + " bounced between mds" + std::to_string(ev.peer) +
                     " and mds" + std::to_string(ev.rank) + " " +
                     std::to_string(it->second.reversals) +
                     " times, each within " +
                     std::to_string(cfg.ping_pong_window_ticks) + " ticks"});
          }
        }
        break;
      }

      case EventKind::ExportCommit: {
        ++rep.exports_committed;
        const auto entries = static_cast<std::uint64_t>(field(ev, "entries"));
        rep.entries_shipped += entries;
        tp.entries_shipped += entries;
        if (ev.span >= 0)
          open_spans.erase(ev.span);
        else if (auto it = open_keyed.find(keyed(ev));
                 it != open_keyed.end() && it->second > 0)
          --it->second;
        {
          // Update direction/time but keep the accumulated reversal
          // count — ping-pong is a pattern across many round trips.
          LastExport& le = last_export[ev.detail];
          le.from = ev.rank;
          le.to = ev.peer;
          le.tick = tick;
        }
        break;
      }

      case EventKind::ExportAbort:
        ++rep.exports_aborted;
        if (ev.span >= 0) open_spans.erase(ev.span);
        // Keyed fallback can't match aborts (they carry no frag) —
        // span-less aborted exports stay open and surface as stuck,
        // which is the right conservative answer for foreign dumps.
        break;

      case EventKind::DirfragSplit: {
        ++rep.splits;
        ++tp.splits;
        const int parent_bits = frag_bits_of(ev.detail);
        const double fanout = field(ev, "fragments", 2.0);
        if (parent_bits >= 0 && fanout >= 2.0) {
          const int child_bits =
              parent_bits +
              static_cast<int>(std::lround(std::log2(fanout)));
          rep.max_split_depth = std::max(rep.max_split_depth, child_bits);
        }
        break;
      }

      case EventKind::DirfragMerge:
        ++rep.merges;
        ++tp.merges;
        break;

      case EventKind::DeadLetterParked:
        ++rep.parked;
        break;
      case EventKind::DeadLetterFlushed:
        ++rep.flushed;
        break;

      case EventKind::Crash:
        ++rep.crashes;
        break;

      default:
        break;
    }
  }
  flush_tick_loads(rep.ticks);

  // CV per tick over ranks that ever reported a load.
  std::size_t reporting = 0;
  for (const bool s : saw_load) reporting += s ? 1 : 0;
  double cv_sum = 0.0;
  std::uint64_t cv_ticks = 0;
  for (TickPoint& tp : rep.series) {
    if (reporting >= 2) {
      double sum = 0.0;
      for (std::size_t r = 0; r < nranks; ++r)
        if (saw_load[r]) sum += tp.load[r];
      const double mean = sum / static_cast<double>(reporting);
      if (mean > 0.0) {
        double var = 0.0;
        for (std::size_t r = 0; r < nranks; ++r)
          if (saw_load[r]) {
            const double d = tp.load[r] - mean;
            var += d * d;
          }
        var /= static_cast<double>(reporting);
        tp.cv = std::sqrt(var) / mean;
      }
    }
    cv_sum += tp.cv;
    ++cv_ticks;
    rep.cv_max = std::max(rep.cv_max, tp.cv);
  }
  rep.cv_mean = cv_ticks > 0 ? cv_sum / static_cast<double>(cv_ticks) : 0.0;
  rep.churn = rep.ticks > 0 ? static_cast<double>(rep.exports_started) /
                                  static_cast<double>(rep.ticks)
                            : 0.0;

  // Stuck exports: anything still open at end of trace.
  for (const auto& [span, open] : open_spans)
    rep.anomalies.push_back(
        {"stuck-export", open.at, span,
         open.detail + " export started but neither committed nor aborted"});
  for (const auto& [key, n] : open_keyed)
    for (std::uint64_t i = 0; i < n; ++i)
      rep.anomalies.push_back(
          {"stuck-export", t_end, kNoSpan,
           key + " export started but neither committed nor aborted"});

  // Dead-letter leak.
  if (rep.parked > rep.flushed)
    rep.anomalies.push_back(
        {"dead-letter-leak", t_end, kNoSpan,
         std::to_string(rep.parked - rep.flushed) +
             " request(s) still parked on the dead-letter queue at end of "
             "run"});

  // Locality ratio from the metrics snapshot, when provided.
  if (counters != nullptr) {
    const auto completed = counters->find("mds_requests_completed_total");
    const auto forwards = counters->find("mds_forwards_total");
    if (completed != counters->end() && forwards != counters->end() &&
        completed->second + forwards->second > 0.0) {
      rep.has_locality = true;
      rep.locality_ratio =
          completed->second / (completed->second + forwards->second);
    }
  }

  // Deterministic ordering: detection walks events in timeline order, but
  // end-of-trace findings are appended from maps — sort by (detector,
  // at, span, detail) so the report never depends on map iteration quirks.
  std::stable_sort(rep.anomalies.begin(), rep.anomalies.end(),
                   [](const Anomaly& a, const Anomaly& b) {
                     if (a.detector != b.detector) return a.detector < b.detector;
                     if (a.at != b.at) return a.at < b.at;
                     if (a.span != b.span) return a.span < b.span;
                     return a.detail < b.detail;
                   });
  return rep;
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

namespace {
const char* const kDetectors[] = {"dead-letter-leak", "ping-pong",
                                  "stuck-export", "thrash"};
}

std::uint64_t Report::count(const std::string& detector) const {
  std::uint64_t n = 0;
  for (const Anomaly& a : anomalies) n += a.detector == detector ? 1 : 0;
  return n;
}

int Report::tripped() const {
  int n = 0;
  for (const char* d : kDetectors) n += count(d) > 0 ? 1 : 0;
  return n;
}

std::string Report::to_json() const {
  std::string out = "{\"summary\":{";
  out += "\"churn\":" + format_metric_value(churn);
  out += ",\"crashes\":" + std::to_string(crashes);
  out += ",\"cv_max\":" + format_metric_value(cv_max);
  out += ",\"cv_mean\":" + format_metric_value(cv_mean);
  out += ",\"entries_shipped\":" + std::to_string(entries_shipped);
  out += ",\"events\":" + std::to_string(events);
  out += ",\"exports_aborted\":" + std::to_string(exports_aborted);
  out += ",\"exports_committed\":" + std::to_string(exports_committed);
  out += ",\"exports_started\":" + std::to_string(exports_started);
  out += ",\"flushed\":" + std::to_string(flushed);
  if (has_locality)
    out += ",\"locality_ratio\":" + format_metric_value(locality_ratio);
  out += ",\"max_split_depth\":" + std::to_string(max_split_depth);
  out += ",\"merges\":" + std::to_string(merges);
  out += ",\"num_ranks\":" + std::to_string(num_ranks);
  out += ",\"parked\":" + std::to_string(parked);
  if (has_pool) {
    out += ",\"pool_capacity_events\":" + format_metric_value(pool_capacity);
    out += ",\"pool_live_events\":" + format_metric_value(pool_live);
    out += ",\"pool_peak_live_events\":" + format_metric_value(pool_peak_live);
    out += ",\"pool_reserved_bytes\":" + format_metric_value(pool_reserved_bytes);
  }
  out += ",\"spans\":" + std::to_string(spans);
  out += ",\"splits\":" + std::to_string(splits);
  out += ",\"ticks\":" + std::to_string(ticks);
  out += "},";
  if (!histogram_rows.empty()) {
    out += "\"histograms\":{";
    bool first_h = true;
    for (const HistogramRow& h : histogram_rows) {
      if (!first_h) out += ",";
      first_h = false;
      out += json_string(h.name) +
             ":{\"count\":" + std::to_string(h.summary.count);
      out += ",\"p50\":" + format_metric_value(h.summary.p50);
      out += ",\"p95\":" + format_metric_value(h.summary.p95);
      out += ",\"p99\":" + format_metric_value(h.summary.p99);
      out += ",\"sum\":" + format_metric_value(h.summary.sum) + "}";
    }
    out += "},";
  }
  out += "\"detectors\":{";
  bool first = true;
  for (const char* d : kDetectors) {
    if (!first) out += ",";
    first = false;
    out += json_string(d) + ":" + std::to_string(count(d));
  }
  out += "},\"anomalies\":[";
  first = true;
  for (const Anomaly& a : anomalies) {
    if (!first) out += ",";
    first = false;
    out += "{\"detector\":" + json_string(a.detector) +
           ",\"t_us\":" + std::to_string(a.at);
    if (a.span >= 0) out += ",\"span\":" + std::to_string(a.span);
    out += ",\"detail\":" + json_string(a.detail) + "}";
  }
  out += "],\"series\":[";
  first = true;
  for (const TickPoint& tp : series) {
    if (!first) out += ",";
    first = false;
    out += "{\"tick\":" + std::to_string(tp.tick) +
           ",\"cv\":" + format_metric_value(tp.cv);
    out += ",\"load\":[";
    for (std::size_t r = 0; r < tp.load.size(); ++r) {
      if (r > 0) out += ",";
      out += format_metric_value(tp.load[r]);
    }
    out += "],\"migrations\":" + std::to_string(tp.migrations);
    out += ",\"entries_shipped\":" + std::to_string(tp.entries_shipped);
    out += ",\"splits\":" + std::to_string(tp.splits);
    out += ",\"merges\":" + std::to_string(tp.merges) + "}";
  }
  out += "]}";
  return out;
}

std::string Report::to_table() const {
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "  events %-10" PRIu64 " ticks %-8" PRIu64 " ranks %-4d"
                " spans %" PRIu64 "\n",
                events, ticks, num_ranks, spans);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  imbalance CV  mean %-8.4f max %-8.4f\n", cv_mean, cv_max);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  migrations    started %" PRIu64 " committed %" PRIu64
                " aborted %" PRIu64 " (churn %.3f/tick, %" PRIu64
                " entries)\n",
                exports_started, exports_committed, exports_aborted, churn,
                entries_shipped);
  out += buf;
  if (has_locality) {
    std::snprintf(buf, sizeof(buf), "  locality      %.4f\n", locality_ratio);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  dirfrags      splits %" PRIu64 " merges %" PRIu64
                " max depth %d bits\n",
                splits, merges, max_split_depth);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  dead letters  parked %" PRIu64 " flushed %" PRIu64
                "   crashes %" PRIu64 "\n",
                parked, flushed, crashes);
  out += buf;
  if (has_pool) {
    std::snprintf(buf, sizeof(buf),
                  "  event pool    live %.0f peak %.0f capacity %.0f"
                  " reserved %.1f KiB\n",
                  pool_live, pool_peak_live, pool_capacity,
                  pool_reserved_bytes / 1024.0);
    out += buf;
  }
  for (const HistogramRow& h : histogram_rows) {
    if (h.summary.count == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  [hist] %-28s n %-8" PRIu64
                  " p50 %-10.4g p95 %-10.4g p99 %.4g\n",
                  h.name.c_str(), h.summary.count, h.summary.p50,
                  h.summary.p95, h.summary.p99);
    out += buf;
  }
  for (const char* d : kDetectors) {
    const std::uint64_t n = count(d);
    std::snprintf(buf, sizeof(buf), "  [%s] %-16s %" PRIu64 " finding(s)\n",
                  n > 0 ? "TRIP" : " ok ", d, n);
    out += buf;
  }
  for (const Anomaly& a : anomalies) {
    std::snprintf(buf, sizeof(buf), "    - %s @%" PRIu64 "us: ",
                  a.detector.c_str(), a.at);
    out += buf;
    out += a.detail + "\n";
  }
  return out;
}

}  // namespace mantle::obs

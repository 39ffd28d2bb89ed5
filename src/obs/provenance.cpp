#include "obs/provenance.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/json.hpp"

namespace mantle::obs {

namespace {

using jsonr::JsonValue;

/// Short fixed-precision number for the explain narrative (the JSON
/// path uses format_metric_value for exact round-trips instead).
std::string num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", x);
  return buf;
}

std::string secs(Time t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fs", static_cast<double>(t) / 1e6);
  return buf;
}

// FNV-1a 64-bit.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void f64(double x) { bytes(&x, sizeof(x)); }
  void u(std::uint64_t x) { bytes(&x, sizeof(x)); }
};

}  // namespace

std::string input_digest(const DecisionRecord& rec) {
  Fnv f;
  f.u(static_cast<std::uint64_t>(rec.at));
  f.u(static_cast<std::uint64_t>(static_cast<std::int64_t>(rec.rank)));
  f.f64(rec.min_load);
  f.f64(rec.total_load);
  f.u(rec.loads.size());
  for (const double x : rec.loads) f.f64(x);
  for (const std::uint8_t a : rec.alive) f.u(a);
  for (const HookInputRow& r : rec.mdss) {
    f.f64(r.auth_metaload);
    f.f64(r.all_metaload);
    f.f64(r.cpu_pct);
    f.f64(r.mem_pct);
    f.f64(r.queue_len);
    f.f64(r.req_rate);
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, f.h);
  return buf;
}

std::string DecisionRecord::to_json() const {
  std::string out = "{";
  out += "\"alive\":[";
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (i > 0) out += ",";
    out += alive[i] != 0 ? "1" : "0";
  }
  out += "],\"at_us\":" + std::to_string(at);
  out += ",\"cache_hits\":" + std::to_string(cache_hits);
  out += ",\"cache_misses\":" + std::to_string(cache_misses);
  out += ",\"cache_recompiles\":" + std::to_string(cache_recompiles);
  out += ",\"digest\":" + json_string(digest);
  out += ",\"go\":" + std::string(go ? "true" : "false");
  out += ",\"hook_errors\":" + std::to_string(hook_errors);
  out += ",\"loads\":[";
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (i > 0) out += ",";
    out += format_metric_value(loads[i]);
  }
  out += "],\"lua_steps\":" + std::to_string(lua_steps);
  out += ",\"mdss\":[";
  for (std::size_t i = 0; i < mdss.size(); ++i) {
    const HookInputRow& r = mdss[i];
    if (i > 0) out += ",";
    out += "{\"all\":" + format_metric_value(r.all_metaload);
    out += ",\"auth\":" + format_metric_value(r.auth_metaload);
    out += ",\"cpu\":" + format_metric_value(r.cpu_pct);
    out += ",\"mem\":" + format_metric_value(r.mem_pct);
    out += ",\"q\":" + format_metric_value(r.queue_len);
    out += ",\"req\":" + format_metric_value(r.req_rate) + "}";
  }
  out += "],\"min_load\":" + format_metric_value(min_load);
  out += ",\"policy\":" + json_string(policy);
  out += ",\"rank\":" + std::to_string(rank);
  out += ",\"selectors\":[";
  for (std::size_t i = 0; i < selectors.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(selectors[i]);
  }
  out += "],\"ships\":[";
  for (std::size_t i = 0; i < ships.size(); ++i) {
    const ProvenanceShipment& s = ships[i];
    if (i > 0) out += ",";
    out += "{\"goal\":" + format_metric_value(s.goal);
    out += ",\"picks\":[";
    for (std::size_t j = 0; j < s.picks.size(); ++j) {
      const ProvenancePick& p = s.picks[j];
      if (j > 0) out += ",";
      out += "{\"entries\":" + std::to_string(p.entries);
      out += ",\"frag\":" + json_string(p.frag);
      out += ",\"load\":" + format_metric_value(p.load) + "}";
    }
    out += "],\"pool\":" + std::to_string(s.pool);
    out += ",\"shipped\":" + format_metric_value(s.shipped);
    out += ",\"target\":" + std::to_string(s.target) + "}";
  }
  out += "]";
  if (span >= 0) out += ",\"span\":" + std::to_string(span);
  out += ",\"targets\":[";
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (i > 0) out += ",";
    out += format_metric_value(targets[i]);
  }
  out += "],\"total_load\":" + format_metric_value(total_load);
  out += ",\"truncated\":" + std::string(truncated ? "true" : "false");
  out += "}";
  return out;
}

bool ProvenanceRecorder::record(DecisionRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  records_.push_back(std::move(rec));
  return true;
}

std::vector<DecisionRecord> ProvenanceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::uint64_t ProvenanceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t ProvenanceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void ProvenanceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  dropped_ = 0;
}

std::string ProvenanceRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out =
      "{\"dropped\":" + std::to_string(dropped_) + ",\"records\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (i > 0) out += ",";
    out += records_[i].to_json();
  }
  out += "]}";
  return out;
}

std::vector<DecisionRecord> parse_provenance_json(const std::string& json) {
  std::vector<DecisionRecord> out;
  const JsonValue root = jsonr::parse(json);
  const JsonValue* records = root.get("records");
  if (records == nullptr || records->type != JsonValue::Type::Array)
    return out;
  for (const JsonValue& e : records->arr) {
    if (e.type != JsonValue::Type::Object) continue;
    DecisionRecord rec;
    if (const JsonValue* v = e.get("at_us"))
      rec.at = static_cast<Time>(v->num);
    if (const JsonValue* v = e.get("rank"))
      rec.rank = static_cast<int>(v->num);
    if (const JsonValue* v = e.get("span"))
      rec.span = static_cast<SpanId>(v->num);
    if (const JsonValue* v = e.get("policy")) rec.policy = v->str;
    if (const JsonValue* v = e.get("min_load")) rec.min_load = v->num;
    if (const JsonValue* v = e.get("total_load")) rec.total_load = v->num;
    if (const JsonValue* v = e.get("digest")) rec.digest = v->str;
    if (const JsonValue* v = e.get("truncated")) rec.truncated = v->b;
    if (const JsonValue* v = e.get("go")) rec.go = v->b;
    if (const JsonValue* v = e.get("lua_steps"))
      rec.lua_steps = static_cast<std::uint64_t>(v->num);
    if (const JsonValue* v = e.get("hook_errors"))
      rec.hook_errors = static_cast<std::uint64_t>(v->num);
    if (const JsonValue* v = e.get("cache_hits"))
      rec.cache_hits = static_cast<std::uint64_t>(v->num);
    if (const JsonValue* v = e.get("cache_misses"))
      rec.cache_misses = static_cast<std::uint64_t>(v->num);
    if (const JsonValue* v = e.get("cache_recompiles"))
      rec.cache_recompiles = static_cast<std::uint64_t>(v->num);
    if (const JsonValue* v = e.get("loads");
        v != nullptr && v->type == JsonValue::Type::Array)
      for (const JsonValue& x : v->arr) rec.loads.push_back(x.num);
    if (const JsonValue* v = e.get("alive");
        v != nullptr && v->type == JsonValue::Type::Array)
      for (const JsonValue& x : v->arr)
        rec.alive.push_back(x.num != 0.0 ? 1 : 0);
    if (const JsonValue* v = e.get("targets");
        v != nullptr && v->type == JsonValue::Type::Array)
      for (const JsonValue& x : v->arr) rec.targets.push_back(x.num);
    if (const JsonValue* v = e.get("selectors");
        v != nullptr && v->type == JsonValue::Type::Array)
      for (const JsonValue& x : v->arr) rec.selectors.push_back(x.str);
    if (const JsonValue* v = e.get("mdss");
        v != nullptr && v->type == JsonValue::Type::Array)
      for (const JsonValue& m : v->arr) {
        HookInputRow row;
        if (const JsonValue* x = m.get("auth")) row.auth_metaload = x->num;
        if (const JsonValue* x = m.get("all")) row.all_metaload = x->num;
        if (const JsonValue* x = m.get("cpu")) row.cpu_pct = x->num;
        if (const JsonValue* x = m.get("mem")) row.mem_pct = x->num;
        if (const JsonValue* x = m.get("q")) row.queue_len = x->num;
        if (const JsonValue* x = m.get("req")) row.req_rate = x->num;
        rec.mdss.push_back(row);
      }
    if (const JsonValue* v = e.get("ships");
        v != nullptr && v->type == JsonValue::Type::Array)
      for (const JsonValue& s : v->arr) {
        ProvenanceShipment ship;
        if (const JsonValue* x = s.get("target"))
          ship.target = static_cast<int>(x->num);
        if (const JsonValue* x = s.get("goal")) ship.goal = x->num;
        if (const JsonValue* x = s.get("pool"))
          ship.pool = static_cast<std::uint64_t>(x->num);
        if (const JsonValue* x = s.get("shipped")) ship.shipped = x->num;
        if (const JsonValue* x = s.get("picks");
            x != nullptr && x->type == JsonValue::Type::Array)
          for (const JsonValue& p : x->arr) {
            ProvenancePick pick;
            if (const JsonValue* y = p.get("frag")) pick.frag = y->str;
            if (const JsonValue* y = p.get("load")) pick.load = y->num;
            if (const JsonValue* y = p.get("entries"))
              pick.entries = static_cast<std::uint64_t>(y->num);
            ship.picks.push_back(std::move(pick));
          }
        rec.ships.push_back(std::move(ship));
      }
    out.push_back(std::move(rec));
  }
  return out;
}

std::string render_explain(const std::vector<DecisionRecord>& records,
                           const std::vector<TraceEvent>& events,
                           const ExplainOptions& opt) {
  // Index migration spans: export-starts by their parent (the balancer
  // tick span), and the terminal commit/abort by migration span.
  struct Start {
    SpanId span = kNoSpan;
    int peer = -1;
    std::string detail;
  };
  std::map<SpanId, std::vector<Start>> starts_by_parent;
  std::map<SpanId, std::pair<char, Time>> finish_by_span;  // 'c' | 'a'
  for (const TraceEvent& ev : events) {
    if (ev.kind == EventKind::ExportStart && ev.parent >= 0)
      starts_by_parent[ev.parent].push_back({ev.span, ev.peer, ev.detail});
    else if (ev.kind == EventKind::ExportCommit && ev.span >= 0)
      finish_by_span[ev.span] = {'c', ev.at};
    else if (ev.kind == EventKind::ExportAbort && ev.span >= 0)
      finish_by_span[ev.span] = {'a', ev.at};
  }

  const Time tick_us = opt.tick_us > 0 ? opt.tick_us : kSec;
  std::string out;
  std::uint64_t shown = 0;
  for (const DecisionRecord& rec : records) {
    const auto tick = static_cast<std::int64_t>(rec.at / tick_us);
    if (opt.tick >= 0 && tick != opt.tick) continue;
    if (opt.rank >= 0 && rec.rank != opt.rank) continue;
    ++shown;

    std::size_t alive_count = 0;
    for (const std::uint8_t a : rec.alive) alive_count += a != 0 ? 1 : 0;
    const double my_load =
        rec.rank >= 0 && static_cast<std::size_t>(rec.rank) < rec.loads.size()
            ? rec.loads[static_cast<std::size_t>(rec.rank)]
            : 0.0;
    const double mean =
        alive_count > 0 ? rec.total_load / static_cast<double>(alive_count)
                        : 0.0;

    out += "[t=" + secs(rec.at) + " tick " + std::to_string(tick) + "] rank " +
           std::to_string(rec.rank);
    if (rec.span >= 0) out += " span " + std::to_string(rec.span);
    out += " policy=" + rec.policy + ": ";
    out += rec.go ? "GO" : "HOLD";
    out += " — load " + num(my_load);
    if (mean > 0.0) out += " (" + num(my_load / mean) + "x mean " + num(mean);
    else out += " (mean 0";
    out += ", total " + num(rec.total_load) + " over " +
           std::to_string(alive_count) + " alive)";
    if (!rec.go && rec.total_load < rec.min_load)
      out += " [below min_load " + num(rec.min_load) + "]";
    out += "\n";

    if (rec.go) {
      out += "  targets:";
      bool any = false;
      for (std::size_t t = 0; t < rec.targets.size(); ++t) {
        if (rec.targets[t] <= 0.0) continue;
        out += std::string(any ? "," : "") + " r" + std::to_string(t) + " +" +
               num(rec.targets[t]);
        any = true;
      }
      if (!any) out += " none";
      out += "; selectors:";
      if (rec.selectors.empty()) out += " none";
      for (const std::string& s : rec.selectors) out += " " + s;
      out += "\n";
    }

    const auto* starts = [&]() -> const std::vector<Start>* {
      const auto it = starts_by_parent.find(rec.span);
      return it != starts_by_parent.end() ? &it->second : nullptr;
    }();
    for (const ProvenanceShipment& ship : rec.ships) {
      out += "  ship -> r" + std::to_string(ship.target) + ": goal " +
             num(ship.goal) + ", pool " + std::to_string(ship.pool) +
             ", picked " + std::to_string(ship.picks.size()) + ", shipped " +
             num(ship.shipped) + "\n";
      for (const ProvenancePick& pick : ship.picks) {
        out += "    - " + pick.frag + " load " + num(pick.load) + " entries " +
               std::to_string(pick.entries);
        // Resolve the migration outcome via the span tree.
        std::string outcome = "unresolved";
        if (starts != nullptr)
          for (const Start& st : *starts)
            if (st.peer == ship.target && st.detail == pick.frag) {
              const auto fin = finish_by_span.find(st.span);
              if (fin == finish_by_span.end())
                outcome = "in-flight";
              else if (fin->second.first == 'c')
                outcome = "committed @" + secs(fin->second.second);
              else
                outcome = "aborted @" + secs(fin->second.second);
              break;
            }
        out += " [" + outcome + "]\n";
      }
    }

    out += "  eval: " + std::to_string(rec.lua_steps) + " Lua steps, cache " +
           std::to_string(rec.cache_hits) + " hit/" +
           std::to_string(rec.cache_misses) + " miss";
    if (rec.cache_recompiles > 0)
      out += "/" + std::to_string(rec.cache_recompiles) + " recompile";
    out += ", " + std::to_string(rec.hook_errors) + " hook errors";
    if (rec.truncated) out += " [inputs truncated]";
    out += " digest=" + rec.digest + "\n";
  }
  out += std::to_string(shown) + " decision(s)";
  if (shown != records.size())
    out += " (of " + std::to_string(records.size()) + ")";
  out += "\n";
  return out;
}

}  // namespace mantle::obs

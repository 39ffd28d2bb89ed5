#include "obs/provenance.hpp"

#include <array>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/json.hpp"

namespace mantle::obs {

namespace {

using jsonr::JsonValue;

/// Short fixed-precision number for the explain narrative (the JSON
/// path writes JsonWriter::number's text for exact round-trips instead).
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

// FNV-1a 64-bit, with its prime but not the published offset basis:
// 1469598103934665603 is 14695981039346656037 missing its last digit.
// bench/harness.hpp, perfbench/runner.cpp and decision_pin_test.cpp use
// the same basis, and it stays so that no digest changes.
//
// Every input is a sequence of 8-byte fields, hashed byte by byte in
// memory order. A zero byte leaves h unchanged by the xor (h ^ 0 == h),
// so it only multiplies by the prime: a run of k zero bytes folds into one
// multiply by prime^k, and the digest is the byte-serial one.
class Fnv {
 public:
  /// Hash `n` 8-byte fields starting at `p`.
  void words(const unsigned char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) word(p + 8 * i);
  }
  void f64(double x) { word(reinterpret_cast<const unsigned char*>(&x)); }
  void u(std::uint64_t x) { word(reinterpret_cast<const unsigned char*>(&x)); }
  std::uint64_t value() {
    fold_zeros();
    return h_;
  }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  static constexpr std::size_t kMaxRun = 64;
  /// kPow[k] = prime^k (mod 2^64).
  static constexpr std::array<std::uint64_t, kMaxRun + 1> kPow = [] {
    std::array<std::uint64_t, kMaxRun + 1> t{};
    t[0] = 1;
    for (std::size_t k = 1; k <= kMaxRun; ++k) t[k] = t[k - 1] * kPrime;
    return t;
  }();

  void word(const unsigned char* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    if (w == 0) {
      zeros_ += 8;
      return;
    }
    // The zero bytes before the first and after the last nonzero byte (in
    // memory order) join the runs around this word; those between are
    // hashed one by one.
    const int low = std::countr_zero(w) / 8;
    const int high = std::countl_zero(w) / 8;
    constexpr bool little = std::endian::native == std::endian::little;
    const std::size_t first = static_cast<std::size_t>(little ? low : high);
    const std::size_t last = 8 - static_cast<std::size_t>(little ? high : low);
    zeros_ += first;
    if (zeros_ != 0) fold_zeros();
    for (std::size_t j = first; j < last; ++j) {
      h_ ^= p[j];
      h_ *= kPrime;
    }
    zeros_ = 8 - last;
  }
  void fold_zeros() {
    for (; zeros_ > kMaxRun; zeros_ -= kMaxRun) h_ *= kPow[kMaxRun];
    h_ *= kPow[zeros_];
    zeros_ = 0;
  }

  std::uint64_t h_ = 1469598103934665603ULL;
  std::size_t zeros_ = 0;
};

}  // namespace

std::string input_digest(const DigestInput& in) {
  Fnv f;
  f.u(static_cast<std::uint64_t>(in.at));
  f.u(static_cast<std::uint64_t>(static_cast<std::int64_t>(in.rank)));
  f.f64(in.min_load);
  f.f64(in.total_load);
  f.u(in.loads.size());
  f.words(reinterpret_cast<const unsigned char*>(in.loads.data()),
          in.loads.size());
  for (const std::uint8_t a : in.alive) f.u(a);
  for (std::size_t i = 0; i < in.row_count; ++i)
    f.words(in.rows + i * in.row_stride, sizeof(HookInputRow) / 8);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, f.value());
  return buf;
}

std::string input_digest(const DecisionRecord& rec) {
  static_assert(sizeof(HookInputRow) == 6 * sizeof(double));
  return input_digest(
      DigestInput{rec.at, rec.rank, rec.min_load, rec.total_load, rec.loads,
                  rec.alive,
                  reinterpret_cast<const unsigned char*>(rec.mdss.data()),
                  sizeof(HookInputRow), rec.mdss.size()});
}

namespace {

/// One record as a JSON object with name-ordered keys: the routine both
/// DecisionRecord::to_json and ProvenanceRecorder::to_json run.
template <class Out>
void write_record(Out& out, const DecisionRecord& rec) {
  const auto numbers = [&](const std::vector<double>& xs) {
    out.raw('[');
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) out.raw(',');
      out.number(xs[i]);
    }
    out.raw(']');
  };
  out.raw("{\"alive\":[");
  for (std::size_t i = 0; i < rec.alive.size(); ++i) {
    if (i > 0) out.raw(',');
    out.raw(rec.alive[i] != 0 ? '1' : '0');
  }
  out.raw("],\"at_us\":");
  out.integer(rec.at);
  out.raw(",\"cache_hits\":");
  out.integer(rec.cache_hits);
  out.raw(",\"cache_misses\":");
  out.integer(rec.cache_misses);
  out.raw(",\"cache_recompiles\":");
  out.integer(rec.cache_recompiles);
  out.raw(",\"digest\":");
  out.string(rec.digest);
  out.raw(rec.go ? ",\"go\":true" : ",\"go\":false");
  out.raw(",\"hook_errors\":");
  out.integer(rec.hook_errors);
  out.raw(",\"loads\":");
  numbers(rec.loads);
  out.raw(",\"lua_steps\":");
  out.integer(rec.lua_steps);
  out.raw(",\"mdss\":[");
  for (std::size_t i = 0; i < rec.mdss.size(); ++i) {
    const HookInputRow& r = rec.mdss[i];
    if (i > 0) out.raw(',');
    out.raw("{\"all\":");
    out.number(r.all_metaload);
    out.raw(",\"auth\":");
    out.number(r.auth_metaload);
    out.raw(",\"cpu\":");
    out.number(r.cpu_pct);
    out.raw(",\"mem\":");
    out.number(r.mem_pct);
    out.raw(",\"q\":");
    out.number(r.queue_len);
    out.raw(",\"req\":");
    out.number(r.req_rate);
    out.raw('}');
  }
  out.raw("],\"min_load\":");
  out.number(rec.min_load);
  out.raw(",\"policy\":");
  out.string(rec.policy);
  out.raw(",\"rank\":");
  out.integer(rec.rank);
  out.raw(",\"selectors\":[");
  for (std::size_t i = 0; i < rec.selectors.size(); ++i) {
    if (i > 0) out.raw(',');
    out.string(rec.selectors[i]);
  }
  out.raw("],\"ships\":[");
  for (std::size_t i = 0; i < rec.ships.size(); ++i) {
    const ProvenanceShipment& s = rec.ships[i];
    if (i > 0) out.raw(',');
    out.raw("{\"goal\":");
    out.number(s.goal);
    out.raw(",\"picks\":[");
    for (std::size_t j = 0; j < s.picks.size(); ++j) {
      const ProvenancePick& p = s.picks[j];
      if (j > 0) out.raw(',');
      out.raw("{\"entries\":");
      out.integer(p.entries);
      out.raw(",\"frag\":");
      out.string(p.frag);
      out.raw(",\"load\":");
      out.number(p.load);
      out.raw('}');
    }
    out.raw("],\"pool\":");
    out.integer(s.pool);
    out.raw(",\"shipped\":");
    out.number(s.shipped);
    out.raw(",\"target\":");
    out.integer(s.target);
    out.raw('}');
  }
  out.raw(']');
  if (rec.span >= 0) {
    out.raw(",\"span\":");
    out.integer(rec.span);
  }
  out.raw(",\"targets\":");
  numbers(rec.targets);
  out.raw(",\"total_load\":");
  out.number(rec.total_load);
  out.raw(rec.truncated ? ",\"truncated\":true}" : ",\"truncated\":false}");
}

template <class Out>
void write_records(Out& out, const std::vector<DecisionRecord>& records,
                   std::uint64_t dropped) {
  out.raw("{\"dropped\":");
  out.integer(dropped);
  out.raw(",\"records\":[");
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out.raw(',');
    write_record(out, records[i]);
  }
  out.raw("]}");
}

}  // namespace

std::string DecisionRecord::to_json() const {
  return write_reserved([&](auto& out) { write_record(out, *this); });
}

bool ProvenanceRecorder::record(DecisionRecord rec) {
  if (records_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  records_.push_back(std::move(rec));
  return true;
}

std::string ProvenanceRecorder::to_json() const {
  return write_reserved(
      [&](auto& out) { write_records(out, records_, dropped_); });
}

std::size_t ProvenanceRecorder::json_bound() const {
  return size_bound(
      [&](auto& out) { write_records(out, records_, dropped_); });
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
                           const TraceEvents& events,
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

#include "safety/shadow.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace mantle::safety {

using cluster::ClusterView;
using cluster::HeartbeatPayload;
using core::MantlePolicy;

namespace {

bool is_budget_error(const std::string& err) {
  return err.find("instruction budget exceeded") != std::string::npos;
}

/// A subtree stand-in moved around by shadow exports. Re-exports prefer
/// the chunk most recently imported from the destination *when the
/// export returns a comparable amount of load* — that is what the
/// dirfrag selectors would do (giving back most of what just arrived
/// means shipping the same big subtree; trimming a sliver ships some
/// other small dirfrag). A policy that bounces load back and forth
/// therefore bounces the *same* chunk, exactly the pattern the
/// ping-pong detector fires on, while policies that merely shave small
/// counter-flows do not.
struct Chunk {
  std::string id;
  int owner = -1;
  int imported_from = -1;
  double load = 0.0;      // what the last export of this chunk carried
  std::uint64_t seq = 0;  // last-moved stamp, for "most recent" picks
};

}  // namespace

ShadowVerdict shadow_evaluate(const std::vector<obs::TraceEvent>& recorded,
                              const MantlePolicy& policy,
                              const ShadowConfig& cfg,
                              obs::MetricsRegistry* metrics,
                              obs::TraceSink* verdict_trace) {
  ShadowVerdict v;

  // --- sandboxed candidate ---
  core::MantleBalancer::Options opt;
  opt.budget = cfg.budget;
  opt.lua_seed = cfg.lua_seed;
  core::MantleBalancer probe(policy, opt);

  // --- cluster extent from the recording ---
  int max_rank = -1;
  for (const obs::TraceEvent& ev : recorded)
    max_rank = std::max({max_rank, ev.rank, ev.peer});
  const int nranks = max_rank + 1;
  v.num_ranks = nranks;

  // Shadow load model: per-rank load evolves from recorded workload
  // *growth* (positive heartbeat-to-heartbeat deltas — arrivals hitting
  // that rank) plus the candidate's own exports. Recorded load *drops*
  // are ignored: they are the recorded balancer's migrations, and
  // replaying them under a candidate that also migrates would count the
  // rebalancing twice and oscillate no matter what the candidate does.
  const auto n = static_cast<std::size_t>(std::max(nranks, 0));
  std::vector<double> shadow_load(n, 0.0);
  std::vector<double> last_rec(n, 0.0);  // last recorded load per rank
  std::vector<bool> seen(n, false);
  std::vector<double> rec_cpu(n, 0.0);

  std::vector<Chunk> chunks;
  std::uint64_t chunk_counter = 0;
  std::uint64_t move_seq = 0;

  obs::TraceSink shadow_trace;  // the synthetic decision timeline
  std::uint64_t prev_errors = 0;

  // One hook batch accounted: bumps call/error/budget tallies.
  const auto account = [&](std::uint64_t calls) {
    v.hook_calls += calls;
    const std::uint64_t now_errors = probe.hook_errors();
    if (now_errors > prev_errors) {
      v.hook_errors += now_errors - prev_errors;
      if (is_budget_error(probe.last_error())) ++v.budget_exhaustions;
      prev_errors = now_errors;
    }
  };

  Time t_last = 0;
  for (const obs::TraceEvent& ev : recorded) {
    t_last = std::max(t_last, ev.at);
    if (ev.kind == obs::EventKind::HeartbeatSent && ev.rank >= 0 &&
        static_cast<std::size_t>(ev.rank) < n) {
      const auto r = static_cast<std::size_t>(ev.rank);
      for (const auto& [k, val] : ev.fields) {
        if (k == "load" && std::isfinite(val)) {
          const double load = std::max(0.0, val);
          shadow_load[r] +=
              seen[r] ? std::max(0.0, load - last_rec[r]) : load;
          last_rec[r] = load;
          seen[r] = true;
        }
        if (k == "cpu" && std::isfinite(val)) rec_cpu[r] = val;
      }
      continue;
    }
    if (ev.kind != obs::EventKind::WhenDecision) continue;
    if (ev.rank < 0 || static_cast<std::size_t>(ev.rank) >= n) continue;

    // --- one replayed balancer tick ---
    ++v.ticks_replayed;
    const auto me = static_cast<std::size_t>(ev.rank);

    ClusterView view;
    view.whoami = ev.rank;
    view.now = ev.at;
    view.mdss.resize(n);
    view.loads.resize(n);
    view.total_load = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      HeartbeatPayload& hb = view.mdss[i];
      hb.rank = static_cast<int>(i);
      const double load = shadow_load[i];
      hb.all_metaload = load;
      hb.auth_metaload = load;
      hb.cpu_pct = rec_cpu[i];
      hb.sent_at = ev.at;
      view.loads[i] = probe.mdsload(hb);
      view.total_load += view.loads[i];
    }
    account(n);

    const obs::SpanId tick_span = shadow_trace.next_span();
    const bool go = probe.when(view);
    account(1);
    shadow_trace.event(ev.at, obs::EventKind::WhenDecision, ev.rank, -1, {},
                       {{"go", go ? 1.0 : 0.0},
                        {"my_load", view.loads[me]},
                        {"total_load", view.total_load}},
                       tick_span);
    if (!go) continue;

    std::vector<double> targets = probe.where(view);
    account(1);
    targets.resize(n, 0.0);
    double surviving = 0.0;
    double shipped = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      if (t == me || targets[t] <= 0.0) continue;
      surviving += 1.0;
      shipped += targets[t];
    }
    {
      obs::TraceEvent we;
      we.at = ev.at;
      we.kind = obs::EventKind::WhereDecision;
      we.rank = ev.rank;
      we.span = tick_span;
      we.fields.emplace_back("targets_total", surviving);
      we.fields.emplace_back("shipped_total", shipped);
      shadow_trace.record(std::move(we));
    }
    probe.howmuch();
    account(1);

    // --- shadow exports: move chunks, displace load ---
    for (std::size_t t = 0; t < n; ++t) {
      if (t == me || targets[t] <= 0.0) continue;
      // The mechanism cannot ship more load than the exporter holds.
      const double goal = std::min(targets[t] * cfg.need_min_factor,
                                   shadow_load[me]);
      if (goal <= cfg.min_export_load) continue;
      // Pick the chunk to ship: the one most recently imported from the
      // destination, if this export gives back at least half of what
      // that chunk carried; else a fresh one.
      Chunk* pick = nullptr;
      for (Chunk& c : chunks)
        if (c.owner == static_cast<int>(me) &&
            c.imported_from == static_cast<int>(t) &&
            goal >= 0.5 * c.load && (pick == nullptr || c.seq > pick->seq))
          pick = &c;
      if (pick == nullptr) {
        chunks.push_back(Chunk{"shadow:c" + std::to_string(++chunk_counter),
                               static_cast<int>(me), -1, 0.0, 0});
        pick = &chunks.back();
      }
      pick->owner = static_cast<int>(t);
      pick->imported_from = static_cast<int>(me);
      pick->load = goal;
      pick->seq = ++move_seq;
      shadow_load[me] = std::max(0.0, shadow_load[me] - goal);
      shadow_load[t] += goal;
      ++v.exports;
      const obs::SpanId mig = shadow_trace.next_span();
      shadow_trace.event(ev.at, obs::EventKind::ExportStart, ev.rank,
                         static_cast<int>(t), pick->id, {{"load", goal}}, mig,
                         tick_span);
      shadow_trace.event(ev.at, obs::EventKind::ExportCommit, ev.rank,
                         static_cast<int>(t), pick->id, {{"entries", 0.0}},
                         mig, tick_span);
    }
  }

  // --- verdict ---
  v.report = obs::analyze(shadow_trace.snapshot(), cfg.analyze);
  if (v.ticks_replayed == 0) {
    v.accepted = false;
    v.reason = "recorded trace contains no balancer ticks to replay";
  } else if (v.budget_exhaustions > cfg.max_budget_exhaustions) {
    v.accepted = false;
    v.reason = "hook instruction budget exhausted " +
               std::to_string(v.budget_exhaustions) + " time(s) during replay";
  } else if (v.report.tripped() > 0) {
    std::string which;
    for (const char* d : {"dead-letter-leak", "ping-pong", "stuck-export",
                          "thrash"})
      if (v.report.count(d) > 0) which += std::string(which.empty() ? "" : ", ") + d;
    v.accepted = false;
    v.reason = "anomaly detector(s) tripped on the shadow timeline: " + which;
  } else if (v.hook_calls > 0 &&
             static_cast<double>(v.hook_errors) >
                 cfg.max_hook_error_rate *
                     static_cast<double>(v.hook_calls)) {
    v.accepted = false;
    v.reason = "hook error rate " + std::to_string(v.hook_errors) + "/" +
               std::to_string(v.hook_calls) +
               " exceeds the acceptance threshold";
  } else {
    v.accepted = true;
  }

  if (metrics != nullptr) {
    metrics
        ->counter("mantle_shadow_evaluations_total",
                  "candidate policies shadow-evaluated")
        .inc();
    if (!v.accepted)
      metrics
          ->counter("mantle_shadow_rejections_total",
                    "candidate policies rejected by shadow evaluation")
          .inc();
  }
  if (verdict_trace != nullptr)
    verdict_trace->event(
        t_last, obs::EventKind::ShadowVerdict, -1, -1,
        v.accepted ? "accepted" : "rejected",
        {{"accepted", v.accepted ? 1.0 : 0.0},
         {"ticks", static_cast<double>(v.ticks_replayed)},
         {"exports", static_cast<double>(v.exports)},
         {"hook_errors", static_cast<double>(v.hook_errors)},
         {"budget_exhaustions", static_cast<double>(v.budget_exhaustions)},
         {"tripped", static_cast<double>(v.report.tripped())}});
  return v;
}

std::string gate_injection(const std::vector<obs::TraceEvent>& recorded,
                           const MantlePolicy& policy, const ShadowConfig& cfg,
                           obs::MetricsRegistry* metrics,
                           obs::TraceSink* verdict_trace) {
  // Stage 1: syntax + budgeted dry run against the synthetic view.
  const std::string err = core::validate_policy(policy, cfg.budget);
  if (!err.empty()) return "validation failed: " + err;
  // Stage 2: replay against the recorded production trace.
  const ShadowVerdict v =
      shadow_evaluate(recorded, policy, cfg, metrics, verdict_trace);
  if (!v.accepted) return "shadow evaluation rejected the policy: " + v.reason;
  return "";
}

std::string ShadowVerdict::to_json() const {
  std::string out = "{\"accepted\":";
  out += accepted ? "true" : "false";
  out += ",\"reason\":" + obs::json_string(reason);
  out += ",\"summary\":{";
  out += "\"budget_exhaustions\":" + std::to_string(budget_exhaustions);
  out += ",\"exports\":" + std::to_string(exports);
  out += ",\"hook_calls\":" + std::to_string(hook_calls);
  out += ",\"hook_errors\":" + std::to_string(hook_errors);
  out += ",\"num_ranks\":" + std::to_string(num_ranks);
  out += ",\"ticks_replayed\":" + std::to_string(ticks_replayed);
  out += "},\"report\":" + report.to_json() + "}";
  return out;
}

std::string ShadowVerdict::to_table() const {
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof(buf), "  verdict       %s\n",
                accepted ? "ACCEPTED" : "REJECTED");
  out += buf;
  if (!reason.empty()) out += "  reason        " + reason + "\n";
  std::snprintf(buf, sizeof(buf),
                "  replay        %" PRIu64 " tick(s), %d rank(s), %" PRIu64
                " shadow export(s)\n",
                ticks_replayed, num_ranks, exports);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  hooks         %" PRIu64 " call(s), %" PRIu64
                " error(s), %" PRIu64 " budget exhaustion(s)\n",
                hook_calls, hook_errors, budget_exhaustions);
  out += buf;
  out += report.to_table();
  return out;
}

std::string load_policy(const std::string& name_or_path, MantlePolicy& out) {
  if (name_or_path == "original") {
    out = core::scripts::original();
    return "";
  }
  if (name_or_path == "greedy" || name_or_path == "greedy_spill") {
    out = core::scripts::greedy_spill();
    return "";
  }
  if (name_or_path == "greedy_even" || name_or_path == "greedy_spill_even") {
    out = core::scripts::greedy_spill_even();
    return "";
  }
  if (name_or_path == "fill_spill" || name_or_path == "fill_and_spill") {
    out = core::scripts::fill_and_spill();
    return "";
  }
  if (name_or_path == "adaptable") {
    out = core::scripts::adaptable();
    return "";
  }

  std::ifstream in(name_or_path, std::ios::binary);
  if (!in) return "cannot open policy file: " + name_or_path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  MantlePolicy p;
  std::string* cur = nullptr;
  std::size_t line_start = 0;
  bool saw_section = false;
  while (line_start <= text.size()) {
    const std::size_t nl = text.find('\n', line_start);
    const std::string line =
        text.substr(line_start, nl == std::string::npos
                                    ? std::string::npos
                                    : nl - line_start);
    std::string trimmed = line;
    while (!trimmed.empty() &&
           (trimmed.back() == ' ' || trimmed.back() == '\t' ||
            trimmed.back() == '\r'))
      trimmed.pop_back();
    std::size_t b = 0;
    while (b < trimmed.size() && (trimmed[b] == ' ' || trimmed[b] == '\t'))
      ++b;
    trimmed = trimmed.substr(b);
    if (!trimmed.empty() && trimmed.front() == '[' && trimmed.back() == ']') {
      const std::string name = trimmed.substr(1, trimmed.size() - 2);
      if (name == "metaload") cur = &p.metaload;
      else if (name == "mdsload") cur = &p.mdsload;
      else if (name == "when") cur = &p.when;
      else if (name == "where") cur = &p.where;
      else if (name == "howmuch") cur = &p.howmuch;
      else return "unknown policy section [" + name + "] in " + name_or_path;
      saw_section = true;
    } else if (cur != nullptr) {
      // The empty pseudo-line after a final '\n' is not content.
      if (nl != std::string::npos || !line.empty()) {
        *cur += line;
        *cur += '\n';
      }
    } else if (!trimmed.empty() && trimmed.rfind("--", 0) != 0) {
      return "policy file must start with a [hook] section: " + name_or_path;
    }
    if (nl == std::string::npos) break;
    line_start = nl + 1;
  }
  if (!saw_section)
    return "no [metaload]/[mdsload]/[when]/[where]/[howmuch] sections in " +
           name_or_path;
  out = std::move(p);
  return "";
}

}  // namespace mantle::safety

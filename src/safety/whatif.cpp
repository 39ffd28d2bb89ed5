#include "safety/whatif.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>

#include "obs/json.hpp"

namespace mantle::safety {

namespace {

std::string render_go(bool go) { return go ? "go" : "hold"; }

std::string render_doubles(const std::vector<double>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += obs::format_metric_value(v[i]);
  }
  return out;
}

std::string render_strings(const std::vector<std::string>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += v[i];
  }
  return out;
}

}  // namespace

WhatifResult whatif_replay(const std::vector<obs::DecisionRecord>& records,
                           const core::MantlePolicy& policy,
                           std::uint64_t budget) {
  WhatifResult res;
  // One sandboxed candidate per recorded rank, created on first use and
  // kept across decisions so per-rank policy state (WRstate/RDstate,
  // Fill & Spill counters) evolves in recorded order, as it would live.
  std::map<int, std::unique_ptr<core::MantleBalancer>> sandboxes;
  const auto sandbox = [&](int rank) -> core::MantleBalancer& {
    auto it = sandboxes.find(rank);
    if (it == sandboxes.end()) {
      core::MantleBalancer::Options opt;
      opt.budget = budget;
      it = sandboxes
               .emplace(rank, std::make_unique<core::MantleBalancer>(policy,
                                                                     opt))
               .first;
    }
    return *it->second;
  };

  for (const obs::DecisionRecord& rec : records) {
    ++res.decisions;
    if (rec.truncated) {
      ++res.skipped_truncated;
      continue;
    }
    ++res.replayed;
    core::MantleBalancer& cand = sandbox(rec.rank);

    // Rebuild the exact view the recorded balancer saw: recorded
    // heartbeat rows and aliveness, loads re-derived through the
    // *candidate's* mdsload (that is part of what a new policy changes).
    cluster::ClusterView view;
    view.whoami = rec.rank;
    view.now = rec.at;
    view.mdss.resize(rec.mdss.size());
    for (std::size_t i = 0; i < rec.mdss.size(); ++i) {
      cluster::HeartbeatPayload& hb = view.mdss[i];
      hb.rank = static_cast<cluster::MdsRank>(i);
      hb.auth_metaload = rec.mdss[i].auth_metaload;
      hb.all_metaload = rec.mdss[i].all_metaload;
      hb.cpu_pct = rec.mdss[i].cpu_pct;
      hb.mem_pct = rec.mdss[i].mem_pct;
      hb.queue_len = rec.mdss[i].queue_len;
      hb.req_rate = rec.mdss[i].req_rate;
      hb.sent_at = rec.at;
    }
    view.alive = rec.alive;
    view.loads.resize(view.mdss.size());
    view.total_load = 0.0;
    for (std::size_t i = 0; i < view.mdss.size(); ++i) {
      view.loads[i] = view.is_alive(i) ? cand.mdsload(view.mdss[i]) : 0.0;
      view.total_load += view.loads[i];
    }

    const bool go = view.total_load >= rec.min_load && cand.when(view);
    const auto diff = [&](const char* field, std::string recorded,
                          std::string replayed) {
      WhatifDiff d;
      d.at = rec.at;
      d.rank = rec.rank;
      d.digest = rec.digest;
      d.field = field;
      d.recorded = std::move(recorded);
      d.replayed = std::move(replayed);
      res.diffs.push_back(std::move(d));
    };
    if (go != rec.go) {
      ++res.go_flips;
      diff("go", render_go(rec.go), render_go(go));
    } else if (go) {
      std::vector<double> targets = cand.where(view);
      targets.resize(view.mdss.size(), 0.0);
      if (targets != rec.targets) {
        ++res.target_diffs;
        diff("targets", render_doubles(rec.targets), render_doubles(targets));
      }
      const std::vector<std::string> selectors = cand.howmuch();
      if (selectors != rec.selectors) {
        ++res.selector_diffs;
        diff("selectors", render_strings(rec.selectors),
             render_strings(selectors));
      }
    }
  }
  for (const auto& [rank, cand] : sandboxes)
    res.hook_errors += cand->hook_errors();
  return res;
}

std::string WhatifResult::to_json() const {
  std::string out = "{\"summary\":{";
  const auto u = [&out](const char* k, std::uint64_t v, bool comma = true) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 "%s", k, v,
                  comma ? "," : "");
    out += buf;
  };
  u("decisions", decisions);
  u("diff_count", diff_count());
  u("go_flips", go_flips);
  u("hook_errors", hook_errors);
  u("replayed", replayed);
  u("selector_diffs", selector_diffs);
  u("skipped_truncated", skipped_truncated);
  u("target_diffs", target_diffs, false);
  out += "},\"diffs\":[";
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    const WhatifDiff& d = diffs[i];
    if (i != 0) out.push_back(',');
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"at_us\":%" PRId64 ",",
                  static_cast<std::int64_t>(d.at));
    out += buf;
    out += "\"digest\":" + obs::json_string(d.digest) + ",";
    out += "\"field\":" + obs::json_string(d.field) + ",";
    std::snprintf(buf, sizeof(buf), "\"rank\":%d,", d.rank);
    out += buf;
    out += "\"recorded\":" + obs::json_string(d.recorded) + ",";
    out += "\"replayed\":" + obs::json_string(d.replayed) + "}";
  }
  out += "]}";
  return out;
}

std::string WhatifResult::to_table() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "what-if replay: %" PRIu64 " decision(s), %" PRIu64
                " replayed, %" PRIu64 " skipped (truncated inputs)\n",
                decisions, replayed, skipped_truncated);
  out += buf;
  for (const WhatifDiff& d : diffs) {
    std::snprintf(buf, sizeof(buf), "  [t=%.3fs] rank %d %s:",
                  to_seconds(d.at), d.rank, d.field.c_str());
    out += buf;
    out += " recorded=" + d.recorded + " replayed=" + d.replayed;
    if (!d.digest.empty()) out += " (digest " + d.digest + ")";
    out.push_back('\n');
  }
  std::snprintf(buf, sizeof(buf),
                "  diffs: %" PRIu64 " (go %" PRIu64 ", targets %" PRIu64
                ", selectors %" PRIu64 "); candidate hook errors %" PRIu64
                "\n",
                diff_count(), go_flips, target_diffs, selector_diffs,
                hook_errors);
  out += buf;
  return out;
}

}  // namespace mantle::safety

/// MantleBalancer writes Lua state only when interpreted code can read it
/// (docs/PERFORMANCE.md, "Hook environments on demand" and "Table 1
/// without the interpreter"). This test drives it and EagerBalancer, a
/// test-only copy of the eager environment code it replaced, which runs
/// every `when`, `where` and `howmuch` on the interpreter, through the
/// same seeded random calls, with probe policies whose interpreted hooks
/// dump everything the host binds and a lowered `where` assigns, stash
/// tables in globals and read them back later, and overwrite or nil rows
/// and container cells. After every call the two must agree on the
/// return value, the probe's readout, the hook errors, last_error(),
/// eval_stats(), cache_stats() and every registry series.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/mantle.hpp"
#include "lua/lower.hpp"
#include "obs/metrics.hpp"
#include "store/object_store.hpp"

namespace mantle::core {
namespace {

using cluster::ClusterView;
using cluster::HeartbeatPayload;
using cluster::PopSnapshot;
using lua::Value;

// ---------------------------------------------------------------------------
// The oracle: MantleBalancer's hook environments as they were written
// before they were written on demand. Every mdsload binds its single-row
// MDSs table, `when` and `where` each bind the whole view, and `when` sets
// `go` and `__go` before it runs on the interpreter; only the load hooks
// are lowered, and `where` and `howmuch` always run on the interpreter.
// Logging and tracing are left out.
// ---------------------------------------------------------------------------

constexpr const char* kHookNames[] = {"metaload", "mdsload", "when", "where",
                                      "howmuch"};
constexpr const char* kRowFields[8] = {"auth", "all", "cpu", "mem",
                                       "q",    "req", "load", "alive"};
constexpr const char* kBoundNames[] = {
    "MDSs",    "i",      "IRD",   "IWR",          "READDIR",    "FETCH",
    "STORE",   "targets", "whoami", "total",      "authmetaload",
    "allmetaload"};

const std::vector<std::string>& lowering_inputs(bool mdsload) {
  static const std::vector<std::string> pop = {"IRD", "IWR", "READDIR",
                                               "FETCH", "STORE"};
  static const std::vector<std::string> row = [] {
    std::vector<std::string> v;
    for (const char* f : kRowFields) v.push_back(std::string("MDSs[i].") + f);
    return v;
  }();
  return mdsload ? row : pop;
}

void point_at(Value& cell, const lua::TablePtr& t) {
  if (!(cell.is_table() && cell.table() == t)) cell = Value(t);
}

std::array<double, 8> row_values(const HeartbeatPayload& hb, double load,
                                 double alive) {
  return {hb.auth_metaload, hb.all_metaload, hb.cpu_pct, hb.mem_pct,
          hb.queue_len,     hb.req_rate,     load,       alive};
}

std::vector<double> sanitize_targets(const Value& targets, std::size_t n,
                                     const char* hook,
                                     std::uint64_t& hook_errors,
                                     std::string& last_error,
                                     obs::Counter* sanitized) {
  const auto note = [&] {
    ++hook_errors;
    if (sanitized != nullptr) sanitized->inc();
  };
  std::vector<double> out(n, 0.0);
  if (!targets.is_table()) return out;
  const lua::TablePtr t = targets.table();
  for (const auto& [key, val] : t->num_keys) {
    if (!std::isfinite(key) || key != std::floor(key) || key < 1.0 ||
        key > static_cast<double>(n)) {
      note();
      last_error = std::string(hook) + ": targets index out of range";
      continue;
    }
    const double x = val.to_number().value_or(0.0);
    if (!std::isfinite(x) || x < 0.0) {
      note();
      last_error = std::string(hook) + ": non-finite or negative target";
      continue;
    }
    out[static_cast<std::size_t>(key) - 1] = x;
  }
  for (std::size_t k = 0; k < t->str_keys.size(); ++k) {
    note();
    last_error = std::string(hook) + ": string key in targets";
  }
  return out;
}

class EagerBalancer {
 public:
  EagerBalancer(MantlePolicy policy, MantleBalancer::Options opt)
      : policy_(std::move(policy)), opt_(opt) {
    lua_.set_budget(opt_.budget);
    auto wr = [this](std::vector<Value>& args, lua::Interp&) {
      state_ = args.empty() ? Value(0.0) : args[0];
      if (state_.is_string())
        opt_.state_store->write_full(opt_.state_oid, "s:" + state_.str());
      return std::vector<Value>{};
    };
    auto rd = [this](std::vector<Value>&, lua::Interp&) {
      return std::vector<Value>{state_};
    };
    lua_.set_function("WRstate", wr);
    lua_.set_function("WRState", wr);
    lua_.set_function("RDstate", rd);
    lua_.set_function("RDState", rd);
    compile_policy();
  }

  void attach(obs::MetricsRegistry* metrics) {
    for (int h = 0; h < kNumHooks; ++h) {
      const std::string base = std::string("mantle_") + kHookNames[h];
      hook_calls_[h] =
          &metrics->counter(base + "_calls_total", "hook evaluations");
      hook_fail_[h] =
          &metrics->counter(base + "_errors_total", "failed hook evaluations");
      hook_steps_[h] = &metrics->histogram(base + "_lua_steps",
                                           obs::buckets::lua_steps(),
                                           "interpreter steps per evaluation");
    }
    sanitized_ = &metrics->counter("mantle_targets_sanitized_total",
                                   "bogus targets entries clamped/ignored");
    cache_hits_ = &metrics->counter("mantle_policy_cache_hits_total",
                                    "hook evaluations served from the cache");
    cache_misses_ = &metrics->counter("mantle_policy_cache_misses_total",
                                      "first-time hook compilations");
    cache_recompiles_ =
        &metrics->counter("mantle_policy_cache_recompiles_total",
                          "cached hooks replaced by re-injection");
    sync_cache_counters();
  }

  std::uint64_t hook_errors() const { return hook_errors_; }
  const std::string& last_error() const { return last_error_; }
  const MantleBalancer::PolicyCacheStats& cache_stats() const {
    return cache_stats_;
  }
  cluster::Balancer::EvalStats eval_stats() const {
    cluster::Balancer::EvalStats s;
    s.lua_steps = total_steps_;
    s.hook_errors = hook_errors_;
    s.cache_hits = cache_stats_.hits;
    s.cache_misses = cache_stats_.misses;
    s.cache_recompiles = cache_stats_.recompiles;
    return s;
  }

  double metaload(const PopSnapshot& pop) {
    const double inputs[] = {pop.ird, pop.iwr, pop.readdir, pop.fetch,
                             pop.store};
    for (int k = 0; k < 5; ++k)
      global(static_cast<Bound>(kIRD + k)) = Value(inputs[k]);
    const std::uint64_t errs = hook_errors_;
    const double v =
        eval_load_hook(kMetaload, policy_.metaload, "metaload", inputs);
    note_hook(kMetaload, hook_errors_ != errs);
    return v;
  }

  double mdsload(const HeartbeatPayload& hb) {
    const std::size_t slot =
        hb.rank > 0 ? static_cast<std::size_t>(hb.rank) : std::size_t{0};
    if (solo_envs_.size() <= slot) solo_envs_.resize(slot + 1);
    SoloEnv& se = solo_envs_[slot];
    const double idx = static_cast<double>(hb.rank + 1);
    const bool intact = se.mdss != nullptr && se.idx == idx &&
                        se.mdss->erase_version == se.version &&
                        se.mdss->num_keys.size() == 1 &&
                        se.mdss->str_keys.empty();
    if (!intact) {
      if (se.mdss == nullptr) se.mdss = lua::make_table();
      else se.mdss->clear();
      se.cell = se.mdss->slot_num(idx);
      se.version = se.mdss->erase_version;
      se.idx = idx;
    }
    const RowValues row = row_values(hb, 0.0, 1.0);
    se.row.update(row);
    point_at(*se.cell, se.row.row);
    point_at(global(kMDSs), se.mdss);
    global(kI) = Value(idx);
    const std::uint64_t errs = hook_errors_;
    const double v =
        eval_load_hook(kMdsload, policy_.mdsload, "mdsload", row.data());
    note_hook(kMdsload, hook_errors_ != errs);
    return v;
  }

  bool when(const ClusterView& view) {
    pending_targets_.assign(view.size(), 0.0);
    when_filled_targets_ = false;
    if (policy_.when.empty()) return false;
    if (!in_view(view)) {
      ++hook_errors_;
      last_error_ = "when: whoami outside the cluster view";
      sanitized_->inc();
      return false;
    }
    bind_view(view);
    lua_.set_global("go", Value{});
    const HookProgram& prog = program(kWhen, policy_.when);
    lua::RunResult r;
    bool explicit_result = false;
    bool result = false;
    if (prog.then_style) {
      lua_.set_global("__go", Value(0.0));
      r = run(prog);
      if (r.ok) {
        explicit_result = true;
        result = lua_.get_global("__go").to_number().value_or(0.0) == 1.0;
      }
    } else {
      r = run(prog);
      if (r.ok) {
        if (!r.values.empty() && r.values[0].is_bool()) {
          explicit_result = true;
          result = r.values[0].boolean();
        } else {
          const Value go = lua_.get_global("go");
          if (go.is_number()) {
            explicit_result = true;
            result = go.number() == 1.0;
          }
        }
      }
    }
    if (!r.ok) {
      ++hook_errors_;
      last_error_ = r.error;
      note_hook(kWhen, true);
      return false;
    }
    const std::uint64_t errs = hook_errors_;
    pending_targets_ =
        sanitize_targets(lua_.get_global("targets"), view.size(), "when",
                         hook_errors_, last_error_, sanitized_);
    for (const double x : pending_targets_)
      if (x > 0.0) when_filled_targets_ = true;
    note_hook(kWhen, hook_errors_ != errs);
    return explicit_result ? result : when_filled_targets_;
  }

  std::vector<double> where(const ClusterView& view) {
    if (policy_.where.empty()) return pending_targets_;
    if (!in_view(view)) {
      ++hook_errors_;
      last_error_ = "where: whoami outside the cluster view";
      sanitized_->inc();
      return std::vector<double>(view.size(), 0.0);
    }
    bind_view(view);
    lua::RunResult r = run(program(kWhere, policy_.where));
    if (!r.ok) {
      ++hook_errors_;
      last_error_ = r.error;
      note_hook(kWhere, true);
      return std::vector<double>(view.size(), 0.0);
    }
    const std::uint64_t errs = hook_errors_;
    std::vector<double> out =
        sanitize_targets(lua_.get_global("targets"), view.size(), "where",
                         hook_errors_, last_error_, sanitized_);
    note_hook(kWhere, hook_errors_ != errs);
    return out;
  }

  std::vector<std::string> howmuch() {
    if (policy_.howmuch.empty()) return {"big_first"};
    lua::RunResult r = run(program(kHowmuch, policy_.howmuch));
    note_hook(kHowmuch, !r.ok);
    if (!r.ok || !r.first().is_table()) {
      if (!r.ok) {
        ++hook_errors_;
        last_error_ = r.error;
      }
      return {"big_first"};
    }
    std::vector<std::string> out;
    const lua::TablePtr t = r.first().table();
    const double len = t->length();
    for (double i = 1.0; i <= len; i += 1.0) {
      const Value v = t->get(Value(i));
      if (v.is_string()) out.push_back(v.str());
    }
    return out.empty() ? std::vector<std::string>{"big_first"} : out;
  }

  std::string inject(const std::string& key, const std::string& script) {
    MantlePolicy candidate = policy_;
    if (key == "mds_bal_metaload") candidate.metaload = script;
    else if (key == "mds_bal_mdsload") candidate.mdsload = script;
    else if (key == "mds_bal_when") candidate.when = script;
    else if (key == "mds_bal_where") candidate.where = script;
    else if (key == "mds_bal_howmuch") candidate.howmuch = script;
    else return "unknown policy key: " + key;
    const std::string err = validate_policy(candidate, opt_.budget);
    if (!err.empty()) return err;
    policy_ = std::move(candidate);
    compile_policy();
    return "";
  }

 private:
  enum Hook { kMetaload = 0, kMdsload, kWhen, kWhere, kHowmuch, kNumHooks };
  enum Bound {
    kMDSs = 0, kI, kIRD, kIWR, kReaddir, kFetch, kStore,
    kTargets, kWhoami, kTotal, kAuthMetaload, kAllMetaload, kNumBound
  };
  using RowValues = std::array<double, 8>;

  struct HookProgram {
    std::string source;
    lua::CompiledChunk chunk;
    std::optional<lua::NumProgram> lowered;
    bool is_expr = false;
    bool then_style = false;
    bool compiled = false;
  };

  struct RowCache {
    lua::TablePtr row;
    std::uint32_t version = 0;
    Value* cells[8] = {};

    void update(const RowValues& values) {
      const bool intact = row != nullptr && row->erase_version == version &&
                          row->str_keys.size() == 8 && row->num_keys.empty();
      if (!intact) {
        if (row == nullptr) row = lua::make_table();
        else row->clear();
        for (int f = 0; f < 8; ++f) cells[f] = row->slot_str(kRowFields[f]);
        version = row->erase_version;
      }
      for (int f = 0; f < 8; ++f) *cells[f] = Value(values[f]);
    }
  };

  struct ViewEnv {
    lua::TablePtr mdss;
    lua::TablePtr targets;
    std::uint32_t mdss_version = 0;
    std::uint32_t targets_version = 0;
    std::vector<RowCache> rows;
    std::vector<Value*> mdss_cells;
    std::vector<Value*> target_cells;
  };

  struct SoloEnv {
    lua::TablePtr mdss;
    std::uint32_t version = 0;
    double idx = 0.0;
    RowCache row;
    Value* cell = nullptr;
  };

  static bool in_view(const ClusterView& view) {
    return view.size() != 0 && view.whoami >= 0 &&
           static_cast<std::size_t>(view.whoami) < view.size();
  }

  void compile_policy() {
    const std::string* srcs[kNumHooks] = {&policy_.metaload, &policy_.mdsload,
                                          &policy_.when, &policy_.where,
                                          &policy_.howmuch};
    for (int h = 0; h < kNumHooks; ++h) {
      if (srcs[h]->empty()) continue;
      const HookProgram& p = programs_[h];
      if (p.compiled && p.source == *srcs[h]) continue;
      program(static_cast<Hook>(h), *srcs[h]);
    }
  }

  const HookProgram& program(Hook h, const std::string& src) {
    HookProgram& p = programs_[h];
    if (p.compiled && p.source == src) {
      ++cache_stats_.hits;
      sync_cache_counters();
      return p;
    }
    const bool recompile = p.compiled;
    p.source = src;
    p.lowered.reset();
    p.is_expr = false;
    p.then_style = false;
    const char* name = kHookNames[h];
    switch (h) {
      case kMetaload:
      case kMdsload:
        p.chunk = lua::compile_expr(src, name);
        ++cache_stats_.parses;
        if (p.chunk.ok()) {
          p.is_expr = true;
          p.lowered = lua::lower_expr(p.chunk, lowering_inputs(h == kMdsload),
                                      opt_.budget);
          if (p.lowered && p.lowered->boolean) p.lowered.reset();
        } else {
          p.chunk = lua::compile(src, name);
          ++cache_stats_.parses;
        }
        break;
      case kWhen:
        p.then_style = is_then_fragment(src);
        p.chunk = lua::compile(when_chunk(src), name);
        ++cache_stats_.parses;
        break;
      case kWhere:
        p.chunk = lua::compile(src, name);
        ++cache_stats_.parses;
        break;
      default:
        p.chunk = lua::compile_expr(src, name);
        ++cache_stats_.parses;
        break;
    }
    p.compiled = true;
    if (recompile) ++cache_stats_.recompiles;
    else ++cache_stats_.misses;
    sync_cache_counters();
    return p;
  }

  void sync_cache_counters() {
    if (cache_hits_ == nullptr) return;
    cache_hits_->inc(cache_stats_.hits - pushed_.hits);
    cache_misses_->inc(cache_stats_.misses - pushed_.misses);
    cache_recompiles_->inc(cache_stats_.recompiles - pushed_.recompiles);
    pushed_ = cache_stats_;
  }

  Value& global(Bound g) {
    const lua::TablePtr& globals = lua_.globals();
    if (globals->erase_version != bound_version_) {
      std::fill(std::begin(bound_cells_), std::end(bound_cells_), nullptr);
      bound_version_ = globals->erase_version;
    }
    Value*& cell = bound_cells_[g];
    if (cell == nullptr) cell = globals->slot_str(kBoundNames[g]);
    return *cell;
  }

  void bind_view(const ClusterView& view) {
    const std::size_t n = view.size();
    ViewEnv& env = view_env_;
    if (env.mdss == nullptr) {
      env.mdss = lua::make_table();
      env.targets = lua::make_table();
    }
    const bool mdss_intact = env.rows.size() == n &&
                             env.mdss->erase_version == env.mdss_version &&
                             env.mdss->num_keys.size() == n &&
                             env.mdss->str_keys.empty();
    if (!mdss_intact) {
      env.mdss->clear();
      env.rows.resize(n);
      env.mdss_cells.assign(n, nullptr);
      for (std::size_t i = 0; i < n; ++i)
        env.mdss_cells[i] = env.mdss->slot_num(static_cast<double>(i + 1));
      env.mdss_version = env.mdss->erase_version;
    }
    for (std::size_t i = 0; i < n; ++i) {
      RowCache& rc = env.rows[i];
      const double load = i < view.loads.size() ? view.loads[i] : 0.0;
      rc.update(row_values(view.mdss[i], load, view.is_alive(i) ? 1.0 : 0.0));
      point_at(*env.mdss_cells[i], rc.row);
    }
    const bool targets_intact = env.target_cells.size() == n &&
                                env.targets->erase_version ==
                                    env.targets_version &&
                                env.targets->num_keys.size() == n &&
                                env.targets->str_keys.empty();
    if (!targets_intact) {
      env.targets->clear();
      env.target_cells.assign(n, nullptr);
      for (std::size_t i = 0; i < n; ++i)
        env.target_cells[i] = env.targets->slot_num(static_cast<double>(i + 1));
      env.targets_version = env.targets->erase_version;
    }
    for (std::size_t i = 0; i < n; ++i) *env.target_cells[i] = Value(0.0);
    point_at(global(kMDSs), env.mdss);
    point_at(global(kTargets), env.targets);
    global(kWhoami) = Value(static_cast<double>(view.whoami + 1));
    global(kTotal) =
        Value(std::isfinite(view.total_load) ? view.total_load : 0.0);
    const HeartbeatPayload& me =
        view.mdss[static_cast<std::size_t>(view.whoami)];
    global(kAuthMetaload) = Value(me.auth_metaload);
    global(kAllMetaload) = Value(me.all_metaload);
  }

  lua::RunResult run(const HookProgram& p) {
    lua::RunResult r = lua_.run(p.chunk);
    last_steps_ = lua_.steps_used();
    return r;
  }

  double eval_load_hook(Hook h, const std::string& script,
                        const char* result_global, const double* inputs) {
    if (script.empty()) return 0.0;
    const HookProgram& prog = program(h, script);
    double x = 0.0;
    if (prog.lowered) {
      x = prog.lowered->run(inputs);
      last_steps_ = prog.lowered->steps;
    } else {
      lua::RunResult r = run(prog);
      if (r.ok && !prog.is_expr) r.values = {lua_.get_global(result_global)};
      if (!r.ok) {
        ++hook_errors_;
        last_error_ = r.error;
        return 0.0;
      }
      x = r.first().to_number().value_or(0.0);
    }
    if (!std::isfinite(x) || x < 0.0) {
      ++hook_errors_;
      last_error_ = std::string(result_global) + ": non-finite or negative load";
      sanitized_->inc();
      return 0.0;
    }
    return x;
  }

  void note_hook(Hook h, bool failed) {
    total_steps_ += last_steps_;
    hook_calls_[h]->inc();
    if (failed) hook_fail_[h]->inc();
    hook_steps_[h]->observe(static_cast<double>(last_steps_));
  }

  MantlePolicy policy_;
  MantleBalancer::Options opt_;
  lua::Interp lua_;
  std::uint64_t total_steps_ = 0;
  std::uint64_t last_steps_ = 0;
  std::uint64_t hook_errors_ = 0;
  std::string last_error_;
  Value state_{0.0};
  std::vector<double> pending_targets_;
  bool when_filled_targets_ = false;
  HookProgram programs_[kNumHooks];
  MantleBalancer::PolicyCacheStats cache_stats_;
  MantleBalancer::PolicyCacheStats pushed_;
  ViewEnv view_env_;
  std::vector<SoloEnv> solo_envs_;
  Value* bound_cells_[kNumBound] = {};
  std::uint32_t bound_version_ = 0;
  obs::Counter* hook_calls_[kNumHooks] = {};
  obs::Counter* hook_fail_[kNumHooks] = {};
  obs::Histogram* hook_steps_[kNumHooks] = {};
  obs::Counter* sanitized_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* cache_recompiles_ = nullptr;
};

// ---------------------------------------------------------------------------
// Probe policies
// ---------------------------------------------------------------------------

/// Lua appending to `s` what global `name` holds: a scalar as tostring()
/// prints it; a table as its length and its entries, with row tables one
/// level down (the probes never nest tables deeper).
std::string dump(const std::string& name) {
  return "v = " + name + R"lua(
if type(v) == "table" then
  s = s .. "|)lua" + name + R"lua(#" .. #v .. "{"
  for k, x in pairs(v) do
    s = s .. tostring(k) .. "="
    if type(x) == "table" then
      s = s .. "{"
      for f, y in pairs(x) do s = s .. f .. ":" .. tostring(y) .. "," end
      s = s .. "}"
    else
      s = s .. tostring(x)
    end
    s = s .. ","
  end
  s = s .. "}"
else
  s = s .. "|)lua" + name + R"lua(=" .. tostring(v)
end
)lua";
}

/// A chunk that records everything the host binds (and the tables earlier
/// probes stashed, and which of them are still the same tables) through
/// WRstate, then stashes or vandalizes something, by a counter that both
/// balancers advance alike.
std::string probe(const std::string& hook) {
  std::string src = "s = \"" + hook + "\"\n";
  for (const char* g : {"i", "whoami", "total", "go", "__go", "authmetaload",
                        "allmetaload", "IRD", "MDSs", "targets", "saved_m",
                        "saved_r", "saved_t", "avg", "myload", "excess",
                        "deficit"})
    src += dump(g);
  src += R"lua(
s = s .. "|same=" .. tostring(saved_m == MDSs) .. tostring(saved_t == targets)
if type(MDSs) == "table" then
  for k, x in pairs(MDSs) do s = s .. tostring(x == saved_r) end
end
WRstate(s)
n_probe = (n_probe or 0) + 1
local m = n_probe % 13
local t = type(MDSs) == "table"
if m == 0 then saved_m = MDSs end
if m == 1 and t then saved_r = MDSs[1] end
if m == 2 and t then saved_r = MDSs[2] end
if m == 3 then saved_t = targets end
if m == 4 and t then MDSs[2] = nil end
if m == 5 and t and type(MDSs[1]) == "table" then MDSs[1]["load"] = nil end
if m == 6 and t and type(MDSs[1]) == "table" then MDSs[1]["cpu"] = 77 end
if m == 7 and t then MDSs[1] = {load = 3} end
if m == 8 and type(targets) == "table" then targets[2] = nil end
if m == 9 then MDSs = nil end
if m == 10 and t then MDSs["x"] = 1 end
if m == 11 and type(saved_r) == "table" then saved_r["q"] = 9 end
if m == 12 then targets = nil end
)lua";
  return src;
}

const char* const kTable1When = "if MDSs[whoami][\"load\"] > total/#MDSs then";

std::vector<std::string> metaload_variants() {
  return {"IRD + 2*IWR", probe("metaload") + "metaload = IRD", ""};
}

std::vector<std::string> mdsload_variants() {
  return {scripts::original().mdsload, "MDSs[i][\"all\"]",
          "local v = MDSs[i][\"all\"]\n" + probe("mdsload") + "mdsload = v",
          ""};
}

std::vector<std::string> when_variants() {
  return {
      kTable1When,
      // the same decision on the interpreter, three ways
      "return MDSs[whoami][\"load\"] > total/#MDSs",
      "local d = MDSs[whoami][\"load\"] > total/#MDSs\n" + probe("when") +
          "go = 0 if d then go = 1 end",
      "if MDSs[whoami][\"load\"] > total/#MDSs and total >= 0 then",
      "",
  };
}

std::vector<std::string> where_variants() {
  const std::string table1 = scripts::original().where;
  return {probe("where") +
              "if type(targets) == \"table\" then\n"
              "  targets[1 + n_probe % 3] = n_probe % 5\nend",
          // Table 1's, lowered; then the same on the interpreter: a `local`
          // and a call are outside the lowering's subset.
          table1, "local unused = 0\n" + table1,
          "avg = 0\n" + table1 + "avg = math.max(avg, avg)\n",
          // Lowered: its `if` assigns `avg` on some ticks, `myload` on
          // others and neither on the rest, and its targets divide by
          // zero when whoami is 1, for the sanitizer.
          "if whoami > 1 and total ~= 0 or not (total < 50) then\n"
          "  avg = total / #MDSs\nelseif whoami == 1 then\n"
          "  myload = -whoami\nend\n"
          "for i = 1, #MDSs do\n"
          "  if MDSs[i][\"load\"] >= MDSs[whoami][\"load\"] then\n"
          "    targets[i] = i / (whoami - 1)\n  end\nend",
          // Assigns the `when` flag, so it stays on the interpreter.
          "go = whoami\nfor i = 1, #MDSs do targets[i] = go end",
          ""};
}

std::vector<std::string> howmuch_variants() {
  return {
      "{\"half\", tostring(i), tostring(whoami), tostring(total),"
      " tostring(go), tostring(__go), tostring(authmetaload),"
      " tostring(type(MDSs) == \"table\" and #MDSs),"
      " tostring(type(targets) == \"table\" and #targets),"
      " tostring(type(MDSs) == \"table\" and MDSs[i or 0] ~= nil),"
      " tostring(avg), tostring(deficit)}",
      "{\"big_first\"}", "{\"half\", \"small\"}", "{}", ""};
}

// ---------------------------------------------------------------------------
// Random calls
// ---------------------------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double value(Rng& rng) {
  static constexpr double kPool[] = {0.0, -0.0, 1.0, 50.0, -3.0, kInf, kNaN};
  if (rng.uniform(0, 3) != 0) return std::floor(rng.uniform_real(0.0, 200.0));
  return kPool[rng.uniform(0, std::size(kPool) - 1)];
}

HeartbeatPayload random_hb(Rng& rng, int rank) {
  HeartbeatPayload hb;
  hb.rank = rank;
  hb.auth_metaload = value(rng);
  hb.all_metaload = value(rng);
  hb.cpu_pct = value(rng);
  hb.mem_pct = value(rng);
  hb.queue_len = value(rng);
  hb.req_rate = value(rng);
  return hb;
}

/// 1-8 ranks; sometimes short `loads`, dead ranks, a NaN or infinite
/// total, or a whoami outside the view.
ClusterView random_view(Rng& rng) {
  ClusterView v;
  const auto n = static_cast<std::size_t>(rng.uniform(1, 8));
  v.now = static_cast<Time>(rng.uniform(1, 1000)) * kSec;
  v.whoami = static_cast<mds::MdsRank>(rng.uniform(0, n - 1));
  if (rng.uniform(0, 9) == 0)
    v.whoami = rng.uniform(0, 1) == 0 ? -1 : static_cast<mds::MdsRank>(n);
  for (std::size_t i = 0; i < n; ++i)
    v.mdss.push_back(random_hb(rng, static_cast<int>(i)));
  v.loads.resize(rng.uniform(0, 5) == 0 ? rng.uniform(0, n) : n);
  for (double& x : v.loads) x = value(rng);
  if (rng.uniform(0, 3) == 0) {
    v.alive.assign(n, 1);
    for (std::uint8_t& a : v.alive) a = rng.uniform(0, 3) != 0;
  }
  for (const double x : v.loads) v.total_load += x;
  if (rng.uniform(0, 9) == 0) v.total_load = rng.uniform(0, 1) ? kNaN : kInf;
  return v;
}

struct Pair {
  Pair(const MantlePolicy& p, std::uint64_t budget)
      : on_demand(p, options(store_a, budget)),
        eager(p, options(store_b, budget)) {
    on_demand.attach_observability(&reg_a, nullptr);
    eager.attach(&reg_b);
  }

  static MantleBalancer::Options options(store::ObjectStore& s,
                                         std::uint64_t budget) {
    MantleBalancer::Options o;
    o.budget = budget;
    o.state_store = &s;
    o.state_oid = "probe";
    return o;
  }

  /// Everything but the call's return value, which the caller compares.
  void expect_same(const std::string& what) {
    std::string a;
    std::string b;
    store_a.read("probe", &a);
    store_b.read("probe", &b);
    ASSERT_EQ(a, b) << what;
    ASSERT_EQ(on_demand.hook_errors(), eager.hook_errors()) << what;
    ASSERT_EQ(on_demand.last_error(), eager.last_error()) << what;
    const auto sa = on_demand.eval_stats();
    const auto sb = eager.eval_stats();
    ASSERT_EQ(sa.lua_steps, sb.lua_steps) << what;
    ASSERT_EQ(sa.hook_errors, sb.hook_errors) << what;
    ASSERT_EQ(sa.cache_hits, sb.cache_hits) << what;
    ASSERT_EQ(sa.cache_misses, sb.cache_misses) << what;
    ASSERT_EQ(sa.cache_recompiles, sb.cache_recompiles) << what;
    ASSERT_EQ(on_demand.cache_stats().parses, eager.cache_stats().parses)
        << what;
    ASSERT_EQ(reg_a.to_prometheus(), reg_b.to_prometheus()) << what;
    if (a != last_readout_) ++readouts;
    last_readout_ = a;
  }

  store::ObjectStore store_a;
  store::ObjectStore store_b;
  obs::MetricsRegistry reg_a;
  obs::MetricsRegistry reg_b;
  MantleBalancer on_demand;
  EagerBalancer eager;
  int readouts = 0;  // distinct consecutive probe readouts seen

 private:
  std::string last_readout_;
};

/// Coverage of one drive: calls by kind, and lowered hook calls.
struct Coverage {
  int calls[6] = {};
  int lowered_when = 0;
  int lowered_where = 0;
  int lowered_howmuch = 0;
  int injected = 0;
};

void drive(Pair& pr, Rng& rng, int steps, Coverage& cov) {
  ClusterView view = random_view(rng);
  for (int k = 0; k < steps; ++k) {
    const std::string what = "call " + std::to_string(k);
    const std::uint64_t pick = rng.uniform(0, 99);
    if (pick < 15) {
      ++cov.calls[0];
      const PopSnapshot pop{value(rng), value(rng), value(rng), value(rng),
                            value(rng)};
      ASSERT_TRUE(same_bits(pr.on_demand.metaload(pop), pr.eager.metaload(pop)))
          << what << " metaload";
    } else if (pick < 50) {
      ++cov.calls[1];
      const HeartbeatPayload hb =
          random_hb(rng, static_cast<int>(rng.uniform(0, 8)) - 1);
      ASSERT_TRUE(same_bits(pr.on_demand.mdsload(hb), pr.eager.mdsload(hb)))
          << what << " mdsload";
    } else if (pick < 70) {
      ++cov.calls[2];
      if (rng.uniform(0, 2) != 0) view = random_view(rng);
      cov.lowered_when += pr.on_demand.is_lowered("mds_bal_when");
      ASSERT_EQ(pr.on_demand.when(view), pr.eager.when(view)) << what << " when";
    } else if (pick < 83) {
      ++cov.calls[3];
      if (rng.uniform(0, 3) == 0) view = random_view(rng);
      cov.lowered_where += pr.on_demand.is_lowered("mds_bal_where");
      const std::vector<double> a = pr.on_demand.where(view);
      const std::vector<double> b = pr.eager.where(view);
      ASSERT_EQ(a.size(), b.size()) << what << " where";
      for (std::size_t t = 0; t < a.size(); ++t)
        ASSERT_TRUE(same_bits(a[t], b[t])) << what << " where " << t;
    } else if (pick < 95) {
      ++cov.calls[4];
      cov.lowered_howmuch += pr.on_demand.is_lowered("mds_bal_howmuch");
      ASSERT_EQ(pr.on_demand.howmuch(), pr.eager.howmuch()) << what;
    } else {
      ++cov.calls[5];
      static const char* kKeys[] = {"mds_bal_metaload", "mds_bal_mdsload",
                                    "mds_bal_when", "mds_bal_where",
                                    "mds_bal_howmuch"};
      const std::uint64_t h = rng.uniform(0, 4);
      const std::vector<std::string> variants =
          h == 0   ? metaload_variants()
          : h == 1 ? mdsload_variants()
          : h == 2 ? when_variants()
          : h == 3 ? where_variants()
                   : howmuch_variants();
      const std::string& src = variants[rng.uniform(0, variants.size() - 1)];
      const std::string err = pr.on_demand.inject(kKeys[h], src);
      ASSERT_EQ(err, pr.eager.inject(kKeys[h], src)) << what << " inject";
      cov.injected += err.empty();
    }
    pr.expect_same(what);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The probes trip the load clamp and the targets sanitizer; keep their
/// warnings out of the test log.
class MantleEnv : public ::testing::Test {
 protected:
  void SetUp() override { Log::set_level(LogLevel::Error); }
  void TearDown() override { Log::set_level(prev_); }

 private:
  LogLevel prev_ = Log::level();
};

TEST_F(MantleEnv, ProbePoliciesPassValidation) {
  // Otherwise the drives below would never inject them.
  for (const std::string& src : metaload_variants())
    EXPECT_EQ(validate_policy({src, "", "", "", ""}), "") << src;
  for (const std::string& src : mdsload_variants())
    EXPECT_EQ(validate_policy({"", src, "", "", ""}), "") << src;
  for (const std::string& src : when_variants())
    EXPECT_EQ(validate_policy({"", "", src, "", ""}), "") << src;
  for (const std::string& src : where_variants())
    EXPECT_EQ(validate_policy({"", "", "", src, ""}), "") << src;
  for (const std::string& src : howmuch_variants())
    EXPECT_EQ(validate_policy({"", "", "", "", src}), "") << src;
}

TEST_F(MantleEnv, MatchesTheEagerOracleOnRandomCalls) {
  Coverage cov;
  int readouts = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Start from a random pick of each hook; the injections move on.
    const auto pick = [&](const std::vector<std::string>& v) {
      return v[rng.uniform(0, v.size() - 1)];
    };
    MantlePolicy p{pick(metaload_variants()), pick(mdsload_variants()),
                   pick(when_variants()), pick(where_variants()),
                   pick(howmuch_variants())};
    if (seed % 3 == 0) p.when = kTable1When;
    if (seed % 4 == 0) p.where = scripts::original().where;
    Pair pr(p, MantleBalancer::Options{}.budget);
    drive(pr, rng, 250, cov);
    if (HasFatalFailure()) return;
    readouts += pr.readouts;
  }
  // The drives reached every kind of call, the lowered hooks, accepted
  // injections, and probes whose readouts kept changing.
  for (int k = 0; k < 6; ++k) EXPECT_GT(cov.calls[k], 50) << k;
  EXPECT_GT(cov.lowered_when, 100);
  EXPECT_GT(cov.lowered_where, 100);
  EXPECT_GT(cov.lowered_howmuch, 100);
  EXPECT_GT(cov.injected, 50);
  EXPECT_GT(readouts, 300);
}

TEST_F(MantleEnv, PendingBindOfAnotherSizeIsMadeFirst) {
  // Binding 3 ranks, then 2, then 3 again drops row 3's table and builds
  // a new one, so a row stashed before is no longer MDSs[3]. The lowered
  // `when` leaves each bind pending; the interpreted metaload reads them.
  MantlePolicy p;
  p.metaload =
      "if saved == nil and type(MDSs) == \"table\" then saved = MDSs[3] end\n"
      "WRstate(tostring(saved ~= nil) .. tostring(saved == MDSs[3]))\n"
      "metaload = 1";
  p.when = kTable1When;
  Pair pr(p, MantleBalancer::Options{}.budget);
  ASSERT_TRUE(pr.on_demand.is_lowered("mds_bal_when"));
  Rng rng(3);
  ClusterView three = random_view(rng);
  while (three.size() != 3 || three.whoami < 0 || three.whoami > 2)
    three = random_view(rng);
  ClusterView two = three;
  two.mdss.resize(2);
  two.loads.resize(2);
  two.alive.clear();
  two.whoami = 0;
  std::string readout;
  // when(3), metaload, when(2), when(3), metaload
  const ClusterView* const calls[] = {&three, nullptr, &two, &three, nullptr};
  for (const ClusterView* v : calls) {
    if (v != nullptr) {
      ASSERT_EQ(pr.on_demand.when(*v), pr.eager.when(*v));
    } else {
      ASSERT_EQ(pr.on_demand.metaload({}), pr.eager.metaload({}));
    }
    pr.expect_same(v != nullptr ? "when" : "metaload");
    if (HasFatalFailure()) return;
  }
  pr.store_a.read("probe", &readout);
  EXPECT_EQ(readout, "s:truefalse");
}

TEST_F(MantleEnv, Table1OnlyLowersItsWhen) {
  EXPECT_TRUE(MantleBalancer(scripts::original()).is_lowered("mds_bal_when"));
  for (const std::string& src : when_variants())
    EXPECT_EQ(MantleBalancer(MantlePolicy{"", "", src, "", ""})
                  .is_lowered("mds_bal_when"),
              src == kTable1When)
        << src;
  // A budget below the taken path's 13 steps keeps it on the interpreter.
  MantleBalancer::Options opt;
  opt.budget = 12;
  EXPECT_FALSE(
      MantleBalancer(scripts::original(), opt).is_lowered("mds_bal_when"));
  opt.budget = 13;
  EXPECT_TRUE(
      MantleBalancer(scripts::original(), opt).is_lowered("mds_bal_when"));
}

TEST_F(MantleEnv, PaperPoliciesLowerTheirHooks) {
  constexpr const char* kKeys[] = {"mds_bal_metaload", "mds_bal_mdsload",
                                   "mds_bal_when", "mds_bal_where",
                                   "mds_bal_howmuch"};
  const MantleBalancer table1(scripts::original());
  for (const char* key : kKeys) EXPECT_TRUE(table1.is_lowered(key)) << key;
  // Listings 1-4: their `when` chunks fill `targets` through calls, a
  // `while` or MDSs[whoami+1], and they have no `where`.
  for (const MantlePolicy& p :
       {scripts::greedy_spill(), scripts::greedy_spill_even(),
        scripts::fill_and_spill(), scripts::adaptable()}) {
    const MantleBalancer b(p);
    EXPECT_TRUE(b.is_lowered("mds_bal_metaload")) << p.when;
    EXPECT_TRUE(b.is_lowered("mds_bal_mdsload")) << p.when;
    EXPECT_FALSE(b.is_lowered("mds_bal_when")) << p.when;
    EXPECT_FALSE(b.is_lowered("mds_bal_where")) << p.when;
    EXPECT_TRUE(b.is_lowered("mds_bal_howmuch")) << p.when;
  }
  // The `howmuch` list's steps count at compile time, the `where`'s as it
  // runs: one step below the list's 3 keeps it on the interpreter, and
  // any budget leaves the `where` lowered.
  MantleBalancer::Options opt;
  opt.budget = 2;
  const MantleBalancer tight(scripts::original(), opt);
  EXPECT_FALSE(tight.is_lowered("mds_bal_howmuch"));
  EXPECT_TRUE(tight.is_lowered("mds_bal_where"));
}

TEST_F(MantleEnv, LoweredWhereFallsBackAtTheBudget) {
  // Table 1's `where` over three ranks at loads 90, 10 and 20, seen from
  // the first, takes 145 steps. With a budget of 145 it runs lowered;
  // with 144 the interpreter runs it and fails as it always has: on the
  // last step, before `targets[3] = 20`. An interpreted metaload of 12
  // steps then reads what it left.
  ClusterView view;
  view.now = kSec;
  view.whoami = 0;
  for (int r = 0; r < 3; ++r) {
    HeartbeatPayload hb;
    hb.rank = r;
    view.mdss.push_back(hb);
  }
  view.loads = {90.0, 10.0, 20.0};
  view.total_load = 120.0;
  MantlePolicy p = scripts::original();
  p.metaload = "metaload = targets[2] + 1000 * targets[3] + avg";
  for (const std::uint64_t budget : {144u, 145u, 1000u}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    Pair pr(p, budget);
    ASSERT_TRUE(pr.on_demand.is_lowered("mds_bal_where"));
    const std::uint64_t before = pr.on_demand.eval_stats().lua_steps;
    const std::vector<double> a = pr.on_demand.where(view);
    const std::uint64_t steps = pr.on_demand.eval_stats().lua_steps - before;
    EXPECT_EQ(a, pr.eager.where(view));
    pr.expect_same("where");
    const bool starved = budget < 145;
    const std::vector<double> want =
        starved ? std::vector<double>(3, 0.0)
                : std::vector<double>{0.0, 30.0, 20.0};
    EXPECT_EQ(a, want);
    EXPECT_EQ(pr.on_demand.hook_errors(), starved ? 1u : 0u);
    EXPECT_EQ(steps, starved ? budget + 1 : 145u);
    EXPECT_EQ(pr.on_demand.last_error().find("instruction budget exceeded") !=
                  std::string::npos,
              starved);
    const double read = pr.on_demand.metaload({});
    EXPECT_EQ(read, pr.eager.metaload({}));
    EXPECT_EQ(read, starved ? 70.0 : 20070.0);
    pr.expect_same("metaload");
    if (HasFatalFailure()) return;
  }
}

TEST_F(MantleEnv, WhereMayNotAssignWhatTheHostWrites) {
  // A lowered `where` holds what it assigns until the next flush, which
  // makes those writes last; a name the host writes in between would be
  // overwritten out of order.
  for (const char* g : {"MDSs", "i", "IRD", "IWR", "READDIR", "FETCH",
                        "STORE", "targets", "whoami", "total",
                        "authmetaload", "allmetaload", "go", "__go"}) {
    const MantleBalancer b(MantlePolicy{"", "", "", std::string(g) + " = 1",
                                        ""});
    EXPECT_FALSE(b.is_lowered("mds_bal_where")) << g;
  }
  EXPECT_TRUE(MantleBalancer(MantlePolicy{"", "", "", "avg = 1", ""})
                  .is_lowered("mds_bal_where"));
}

}  // namespace
}  // namespace mantle::core

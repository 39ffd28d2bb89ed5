#include "core/mantle.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace mantle::core {

using cluster::ClusterView;
using cluster::HeartbeatPayload;
using cluster::PopSnapshot;
using lua::Value;

namespace {

/// Is `src` usable as a bare expression (`return (src)` parses)?
bool is_expression(const std::string& src) {
  return lua::check_syntax("return (" + src + ")").empty();
}

/// Does the hook end with a dangling `then` (Table 1's "when" style)?
bool ends_with_then(const std::string& src) {
  // Strip trailing whitespace and line comments, then look for the token.
  std::string s;
  s.reserve(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] == '-' && i + 1 < src.size() && src[i + 1] == '-') {
      while (i < src.size() && src[i] != '\n') ++i;
      if (i < src.size()) s += '\n';
      continue;
    }
    s += src[i];
  }
  std::size_t end = s.find_last_not_of(" \t\r\n");
  if (end == std::string::npos || end + 1 < 4) return false;
  return s.compare(end - 3, 4, "then") == 0 &&
         (end == 3 || !std::isalnum(static_cast<unsigned char>(s[end - 4])));
}

constexpr const char* kHookNames[] = {"metaload", "mdsload", "when", "where",
                                      "howmuch"};

constexpr const char* kRowFields[8] = {"auth", "all", "cpu", "mem",
                                       "q",    "req", "load", "alive"};

/// Names of MantleBalancer::Bound, in order.
constexpr const char* kBoundNames[] = {
    "MDSs",    "i",      "IRD",   "IWR",          "READDIR",    "FETCH",
    "STORE",   "targets", "whoami", "total",      "authmetaload",
    "allmetaload"};

/// The inputs a load hook may be lowered over, in the order metaload()
/// and mdsload() pass their values: the five pop counters, and the eight
/// fields of the row being scored.
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

/// Make `cell` hold table `t`, skipping the store (and its reference-count
/// traffic) when it already does.
void point_at(Value& cell, const lua::TablePtr& t) {
  if (!(cell.is_table() && cell.table() == t)) cell = Value(t);
}

/// The MDSs[i] fields of heartbeat `hb`, with the given load and liveness.
std::array<double, 8> row_values(const HeartbeatPayload& hb, double load,
                                 double alive) {
  return {hb.auth_metaload, hb.all_metaload, hb.cpu_pct, hb.mem_pct,
          hb.queue_len,     hb.req_rate,     load,       alive};
}

/// Read the `targets` table a hook produced into a dense rank-indexed
/// vector, defending the mechanism against policy bugs: non-finite and
/// negative entries clamp to 0, fractional or out-of-range indices are
/// ignored, and every such occurrence is a counted hook error. The
/// mechanism must never export load because a policy emitted NaN.
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
      MANTLE_LOG_WARN("mantle %s hook: ignoring targets[%g] (valid: 1..%zu)",
                      hook, key, n);
      continue;
    }
    const double x = val.to_number().value_or(0.0);
    if (!std::isfinite(x) || x < 0.0) {
      note();
      last_error = std::string(hook) + ": non-finite or negative target";
      MANTLE_LOG_WARN("mantle %s hook: clamping targets[%g]=%g to 0", hook,
                      key, x);
      continue;  // out[key-1] stays 0
    }
    out[static_cast<std::size_t>(key) - 1] = x;
  }
  for (const auto& [key, val] : t->str_keys) {
    (void)val;
    note();
    last_error = std::string(hook) + ": string key in targets";
    MANTLE_LOG_WARN("mantle %s hook: ignoring targets[\"%s\"]", hook,
                    key.c_str());
  }
  return out;
}

}  // namespace

namespace {

/// Serialize a scalar state value for the durable backend. Only scalar
/// state round-trips (tables would need a real codec); policies that
/// need more keep it in Lua globals, which live as long as the VM.
std::string encode_state(const Value& v) {
  if (v.is_number()) return "n:" + v.to_display_string();
  if (v.is_bool()) return std::string("b:") + (v.boolean() ? "1" : "0");
  if (v.is_string()) return "s:" + v.str();
  return "x:";
}

Value decode_state(const std::string& s) {
  if (s.size() < 2 || s[1] != ':') return Value(0.0);
  const std::string payload = s.substr(2);
  switch (s[0]) {
    case 'n': return Value(std::strtod(payload.c_str(), nullptr));
    case 'b': return Value(payload == "1");
    case 's': return Value(payload);
    default: return Value{};
  }
}

}  // namespace

MantleBalancer::MantleBalancer(MantlePolicy policy, Options opt)
    : policy_(std::move(policy)), opt_(opt), state_(0.0) {
  lua_.set_budget(opt_.budget);
  if (opt_.state_store != nullptr && !opt_.state_oid.empty()) {
    // Recover durable state left by a previous incarnation.
    std::string raw;
    if (opt_.state_store->read(opt_.state_oid, &raw).ok)
      state_ = decode_state(raw);
  }
  bind_state_functions();
  compile_policy();
}

// ---------------------------------------------------------------------------
// Compile-once policy pipeline
// ---------------------------------------------------------------------------

void MantleBalancer::compile_policy() {
  const std::string* srcs[kNumHooks] = {&policy_.metaload, &policy_.mdsload,
                                        &policy_.when, &policy_.where,
                                        &policy_.howmuch};
  for (int h = 0; h < kNumHooks; ++h) {
    if (srcs[h]->empty()) continue;
    // Skip hooks whose cached program is already current so re-injection
    // of one hook does not inflate the hit counter for the other four.
    const HookProgram& p = programs_[h];
    if (p.compiled && p.source == *srcs[h]) continue;
    program(static_cast<Hook>(h), *srcs[h]);
  }
}

const MantleBalancer::HookProgram& MantleBalancer::program(
    Hook h, const std::string& src) const {
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
      // Expression or chunk assigning the result global; try the cheaper
      // expression form first (one parse in the common case).
      p.chunk = lua::compile_expr(src, name);
      ++cache_stats_.parses;
      if (p.chunk.ok()) {
        p.is_expr = true;
        p.lowered = lua::lower_expr(p.chunk, lowering_inputs(h == kMdsload),
                                    opt_.budget);
      } else {
        p.chunk = lua::compile(src, name);
        ++cache_stats_.parses;
      }
      break;
    case kWhen:
      if (ends_with_then(src)) {
        // Table 1 style: "if <cond> then" — complete the statement once,
        // here, so truth of the condition is observable at run time.
        p.chunk = lua::compile(src + "\n__go = 1 end", name);
        p.then_style = true;
      } else {
        p.chunk = lua::compile(src, name);
      }
      ++cache_stats_.parses;
      break;
    case kWhere:
      p.chunk = lua::compile(src, name);
      ++cache_stats_.parses;
      break;
    case kHowmuch:
    default:
      p.chunk = lua::compile_expr(src, name);
      ++cache_stats_.parses;
      break;
  }
  p.compiled = true;
  if (recompile) {
    ++cache_stats_.recompiles;
    if (trace_ != nullptr)
      trace_->event(last_now_, obs::EventKind::PolicyRecompile, last_whoami_,
                    -1, name);
  } else {
    ++cache_stats_.misses;
  }
  sync_cache_counters();
  return p;
}

void MantleBalancer::sync_cache_counters() const {
  if (cache_hits_ == nullptr) return;
  cache_hits_->inc(cache_stats_.hits - pushed_.hits);
  cache_misses_->inc(cache_stats_.misses - pushed_.misses);
  cache_recompiles_->inc(cache_stats_.recompiles - pushed_.recompiles);
  pushed_ = cache_stats_;
}

void MantleBalancer::bind_state_functions() {
  // WRstate/RDstate persist decisions across balancer invocations
  // (paper §3.1). In-memory by default; with Options::state_store set,
  // every write also lands in the object store (the paper's "store them
  // in RADOS objects to improve scalability" follow-up). Both
  // capitalizations from the paper are accepted.
  auto wr = [this](std::vector<Value>& args, lua::Interp&) {
    state_ = args.empty() ? Value(0.0) : args[0];
    if (opt_.state_store != nullptr && !opt_.state_oid.empty())
      opt_.state_store->write_full(opt_.state_oid, encode_state(state_));
    return std::vector<Value>{};
  };
  auto rd = [this](std::vector<Value>&, lua::Interp&) {
    return std::vector<Value>{state_};
  };
  lua_.set_function("WRstate", wr);
  lua_.set_function("WRState", wr);
  lua_.set_function("RDstate", rd);
  lua_.set_function("RDState", rd);
}

lua::RunResult MantleBalancer::run(const HookProgram& p) const {
  lua::RunResult r = lua_.run(p.chunk);
  last_steps_ = lua_.steps_used();
  return r;
}

bool MantleBalancer::is_lowered(const std::string& key) const {
  if (key == "mds_bal_metaload") return programs_[kMetaload].lowered.has_value();
  if (key == "mds_bal_mdsload") return programs_[kMdsload].lowered.has_value();
  return false;
}

double MantleBalancer::eval_load_hook(Hook h, const std::string& script,
                                      const char* result_global,
                                      const double* inputs) const {
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
      MANTLE_LOG_WARN("mantle %s hook failed: %s", result_global,
                      r.error.c_str());
      return 0.0;
    }
    x = r.first().to_number().value_or(0.0);
  }
  // Load fractions get the same treatment as targets: a NaN/Inf metaload
  // or mdsload would flow straight into migration sizing (candidate
  // gathering sums metaloads; where() goals scale mdsloads), so clamp to
  // 0 and count it instead of trusting the policy.
  if (!std::isfinite(x) || x < 0.0) {
    ++hook_errors_;
    last_error_ = std::string(result_global) + ": non-finite or negative load";
    if (sanitized_ != nullptr) sanitized_->inc();
    MANTLE_LOG_WARN("mantle %s hook: clamping non-finite/negative load %g to 0",
                    result_global, x);
    return 0.0;
  }
  return x;
}

void MantleBalancer::attach_observability(obs::MetricsRegistry* metrics,
                                          obs::TraceSink* trace) {
  trace_ = trace;
  if (metrics == nullptr) {
    for (int h = 0; h < kNumHooks; ++h)
      hook_calls_[h] = hook_fail_[h] = nullptr;
    for (int h = 0; h < kNumHooks; ++h) hook_steps_[h] = nullptr;
    sanitized_ = nullptr;
    cache_hits_ = cache_misses_ = cache_recompiles_ = nullptr;
    return;
  }
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
  // The construction-time compiles predate this attach; reconcile.
  sync_cache_counters();
}

void MantleBalancer::note_hook(Hook h, bool failed) const {
  // last_steps_ is this evaluation's cost (a hook with no source repeats
  // the previous one's, as reading steps_used() always has). The running
  // total feeds eval_stats() and is kept even without a registry.
  total_steps_ += last_steps_;
  if (hook_calls_[h] == nullptr) return;
  hook_calls_[h]->inc();
  if (failed) hook_fail_[h]->inc();
  hook_steps_[h]->observe(static_cast<double>(last_steps_));
}

cluster::Balancer::EvalStats MantleBalancer::eval_stats() const {
  EvalStats s;
  s.lua_steps = total_steps_;
  s.hook_errors = hook_errors_;
  s.cache_hits = cache_stats_.hits;
  s.cache_misses = cache_stats_.misses;
  s.cache_recompiles = cache_stats_.recompiles;
  return s;
}

// ---------------------------------------------------------------------------
// Zero-rebuild hook environments
// ---------------------------------------------------------------------------

void MantleBalancer::RowCache::update(const RowValues& values) {
  // Intact = the exact eight canonical fields and no erasures since the
  // cell pointers were taken. A policy that reshaped the row (added or
  // nilled keys) gets a fresh row next tick, matching the old
  // table-per-tick behavior.
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

Value& MantleBalancer::global(Bound g) const {
  static_assert(std::size(kBoundNames) == kNumBound);
  const lua::TablePtr& globals = lua_.globals();
  if (globals->erase_version != bound_version_) {
    std::fill(std::begin(bound_cells_), std::end(bound_cells_), nullptr);
    bound_version_ = globals->erase_version;
  }
  // Taken on first use, so a global the host never bound stays absent;
  // every caller stores a non-nil value right away.
  Value*& cell = bound_cells_[g];
  if (cell == nullptr) cell = globals->slot_str(kBoundNames[g]);
  return *cell;
}

double MantleBalancer::metaload(const PopSnapshot& pop) const {
  obs::ScopedPhase prof(obs::ProfilePhase::HookEval);
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

double MantleBalancer::mdsload(const HeartbeatPayload& hb) const {
  obs::ScopedPhase prof(obs::ProfilePhase::HookEval);
  // The hook is an expression over MDSs[i]; bind a table holding the
  // entry being scored at its 1-based index. One cached single-row
  // environment per rank, refreshed in place.
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

void MantleBalancer::bind_view(const ClusterView& view) {
  last_now_ = view.now;
  last_whoami_ = view.whoami;
  const std::size_t n = view.size();
  ViewEnv& env = view_env_;
  if (env.mdss == nullptr) {
    env.mdss = lua::make_table();
    env.targets = lua::make_table();
  }

  // MDSs container: reuse the rank->row cells unless a policy erased keys
  // or the cluster changed size.
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
    // Defensive: a foreign/replayed view may carry fewer loads than ranks.
    const double load = i < view.loads.size() ? view.loads[i] : 0.0;
    rc.update(row_values(view.mdss[i], load, view.is_alive(i) ? 1.0 : 0.0));
    // Heal MDSs[i] if a policy overwrote the container cell itself.
    point_at(*env.mdss_cells[i], rc.row);
  }

  // targets: same table every tick, cells reset to 0.
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

  // Globals are rebound every tick: a policy may have replaced them.
  point_at(global(kMDSs), env.mdss);
  point_at(global(kTargets), env.targets);
  global(kWhoami) = Value(static_cast<double>(view.whoami + 1));
  // A NaN/Inf total (possible in a hand-built or replayed view) is as
  // dangerous as a NaN target: policies divide by it. Present 0 instead.
  global(kTotal) =
      Value(std::isfinite(view.total_load) ? view.total_load : 0.0);
  // `whoami` was validated by the caller (when()/where() refuse to run a
  // hook for an out-of-range rank), but keep the access guarded anyway.
  if (view.whoami >= 0 && static_cast<std::size_t>(view.whoami) < n) {
    const HeartbeatPayload& me =
        view.mdss[static_cast<std::size_t>(view.whoami)];
    global(kAuthMetaload) = Value(me.auth_metaload);
    global(kAllMetaload) = Value(me.all_metaload);
  } else {
    global(kAuthMetaload) = Value(0.0);
    global(kAllMetaload) = Value(0.0);
  }
}

bool MantleBalancer::when(const ClusterView& view) {
  obs::ScopedPhase prof(obs::ProfilePhase::HookEval);
  pending_targets_.assign(view.size(), 0.0);
  when_filled_targets_ = false;
  if (policy_.when.empty()) return false;
  // An empty view or an out-of-range whoami means the caller handed us a
  // view this rank is not part of (seen from fuzzed and replayed inputs).
  // There is nothing meaningful to evaluate: count it, decline to migrate.
  if (view.size() == 0 || view.whoami < 0 ||
      static_cast<std::size_t>(view.whoami) >= view.size()) {
    ++hook_errors_;
    last_error_ = "when: whoami outside the cluster view";
    if (sanitized_ != nullptr) sanitized_->inc();
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
    MANTLE_LOG_WARN("mantle when hook failed: %s", r.error.c_str());
    note_hook(kWhen, true);
    return false;
  }

  // A combined hook may have filled targets directly (Listings 1-2 style).
  const std::uint64_t errs = hook_errors_;
  pending_targets_ =
      sanitize_targets(lua_.get_global("targets"), view.size(), "when",
                       hook_errors_, last_error_, sanitized_);
  for (const double x : pending_targets_)
    if (x > 0.0) when_filled_targets_ = true;
  note_hook(kWhen, hook_errors_ != errs);
  return explicit_result ? result : when_filled_targets_;
}

std::vector<double> MantleBalancer::where(const ClusterView& view) {
  obs::ScopedPhase prof(obs::ProfilePhase::HookEval);
  if (policy_.where.empty()) {
    // Combined when+where policy: reuse what the when hook computed.
    return pending_targets_;
  }
  if (view.size() == 0 || view.whoami < 0 ||
      static_cast<std::size_t>(view.whoami) >= view.size()) {
    ++hook_errors_;
    last_error_ = "where: whoami outside the cluster view";
    if (sanitized_ != nullptr) sanitized_->inc();
    return std::vector<double>(view.size(), 0.0);
  }
  bind_view(view);
  lua::RunResult r = run(program(kWhere, policy_.where));
  if (!r.ok) {
    ++hook_errors_;
    last_error_ = r.error;
    MANTLE_LOG_WARN("mantle where hook failed: %s", r.error.c_str());
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

std::vector<std::string> MantleBalancer::howmuch() const {
  obs::ScopedPhase prof(obs::ProfilePhase::HookEval);
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

std::string MantleBalancer::inject(const std::string& key,
                                   const std::string& script) {
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
  // Invalidate the cached program for the replaced hook right away: the
  // next tick runs the new code (counted as a recompile, traced as a
  // policy-recompile event). Unchanged hooks stay cached.
  compile_policy();
  return "";
}

std::string validate_policy(const MantlePolicy& policy, std::uint64_t budget) {
  // 1. Syntax: every hook must at least parse in its evaluation form.
  auto check_hook = [&](const char* name, const std::string& src,
                        bool allow_then) -> std::string {
    if (src.empty()) return "";
    if (is_expression(src)) return "";
    std::string body = src;
    if (allow_then && ends_with_then(src)) body += " __go = 1 end";
    const std::string err = lua::check_syntax(body, name);
    if (!err.empty()) return std::string(name) + ": " + err;
    return "";
  };
  for (const auto& [name, src, allow_then] :
       {std::tuple<const char*, const std::string&, bool>{"mds_bal_metaload", policy.metaload, false},
        {"mds_bal_mdsload", policy.mdsload, false},
        {"mds_bal_when", policy.when, true},
        {"mds_bal_where", policy.where, false},
        {"mds_bal_howmuch", policy.howmuch, false}}) {
    const std::string err = check_hook(name, src, allow_then);
    if (!err.empty()) return err;
  }

  // 2. Dry run against a synthetic 3-MDS view with a finite budget: this
  // is the "simulator that checks the logic before injecting policies"
  // from §4.4 — `while 1 do end` fails here, not on the live MDS.
  // Expected-failure probes should not spam the log.
  struct LogSilencer {
    LogLevel prev = Log::level();
    LogSilencer() { Log::set_level(LogLevel::Error); }
    ~LogSilencer() { Log::set_level(prev); }
  } silence;
  MantleBalancer::Options opt;
  opt.budget = budget;
  MantleBalancer probe(policy, opt);

  PopSnapshot pop{10.0, 20.0, 5.0, 2.0, 1.0};
  probe.metaload(pop);

  ClusterView view;
  view.whoami = 0;
  view.now = mantle::kSec;
  view.mdss.resize(3);
  for (int i = 0; i < 3; ++i) {
    HeartbeatPayload& hb = view.mdss[static_cast<std::size_t>(i)];
    hb.rank = i;
    hb.auth_metaload = i == 0 ? 100.0 : 0.0;
    hb.all_metaload = i == 0 ? 120.0 : 0.0;
    hb.cpu_pct = i == 0 ? 90.0 : 5.0;
    hb.mem_pct = 10.0;
    hb.queue_len = i == 0 ? 12.0 : 0.0;
    hb.req_rate = i == 0 ? 4000.0 : 0.0;
  }
  view.loads.resize(3);
  for (std::size_t i = 0; i < 3; ++i)
    view.loads[i] = probe.mdsload(view.mdss[i]);
  view.total_load = view.loads[0] + view.loads[1] + view.loads[2];

  // Exercise when/where from each rank's perspective, twice (stateful
  // policies like Fill & Spill take several iterations to act).
  for (int round = 0; round < 4; ++round) {
    for (int who = 0; who < 3; ++who) {
      view.whoami = who;
      if (probe.when(view)) probe.where(view);
    }
  }
  probe.howmuch();

  if (probe.hook_errors() > 0) return probe.last_error();
  return "";
}

// ===========================================================================
// The paper's policies as Mantle scripts
// ===========================================================================

namespace scripts {

MantlePolicy original() {
  MantlePolicy p;
  p.metaload = "IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE";
  p.mdsload =
      "0.8*MDSs[i][\"auth\"] + 0.2*MDSs[i][\"all\"]"
      " + MDSs[i][\"req\"] + 10*MDSs[i][\"q\"]";
  p.when = "if MDSs[whoami][\"load\"] > total/#MDSs then";
  p.where = R"lua(
-- Partition the cluster into importers/exporters around the mean and send
-- my excess toward each importer's deficit (the ~20-line original "where").
avg = total/#MDSs
myload = MDSs[whoami]["load"]
excess = myload - avg
deficit = 0
for i=1,#MDSs do
  if i ~= whoami and MDSs[i]["load"] < avg then
    deficit = deficit + (avg - MDSs[i]["load"])
  end
end
if excess > 0 and deficit > 0 then
  for i=1,#MDSs do
    if i ~= whoami and MDSs[i]["load"] < avg then
      targets[i] = excess * (avg - MDSs[i]["load"]) / deficit
    end
  end
end
)lua";
  p.howmuch = "{\"big_first\"}";
  return p;
}

MantlePolicy greedy_spill() {
  MantlePolicy p;
  // Listing 1, with an explicit existence guard on the right neighbour
  // (in the paper the bare nil index simply errors on the last MDS, which
  // Mantle treats as "no migration"; the guard keeps the log clean).
  p.metaload = "IWR";
  p.mdsload = "MDSs[i][\"all\"]";
  p.when = R"lua(
-- When policy
if MDSs[whoami+1] ~= nil and MDSs[whoami]["load"]>.01 and
   MDSs[whoami+1]["load"]<.01 then
-- Where policy
targets[whoami+1]=allmetaload/2
end
)lua";
  p.howmuch = "{\"half\"}";
  return p;
}

MantlePolicy greedy_spill_even() {
  MantlePolicy p;
  p.metaload = "IWR";
  p.mdsload = "MDSs[i][\"all\"]";
  // Listing 2 with the walk-down loop's comparison as described in the
  // text (walk past loaded nodes toward an empty one); see EXPERIMENTS.md.
  p.when = R"lua(
t=((#MDSs-whoami+1)/2)+whoami
if t ~= math.floor(t) then t=whoami end
if t>#MDSs then t=whoami end
while t~=whoami and MDSs[t]["load"]>=.01 do t=t-1 end
if t~=whoami and MDSs[whoami]["load"]>.01 and MDSs[t]["load"]<.01 then
  targets[t]=MDSs[whoami]["load"]/2
end
)lua";
  p.howmuch = "{\"half\"}";
  return p;
}

MantlePolicy fill_and_spill(double cpu_threshold, double spill_fraction) {
  MantlePolicy p;
  p.metaload = "IRD + IWR";
  p.mdsload = "MDSs[i][\"all\"]";
  char buf[512];
  // Listing 3 counts *down* from persistent state, but the state slot
  // starts at 0, which would spill on the very first overloaded tick
  // instead of after the advertised "3 straight iterations". Counting the
  // streak *up* from 0 arms the full hold from a cold start and after
  // every cool tick (matches builtin::FillSpillBalancer).
  std::snprintf(buf, sizeof(buf), R"lua(
-- When policy (Listing 3)
streak=RDState(); go = 0;
if MDSs[whoami]["cpu"]>%g then
  if streak<2 then WRState(streak+1)
  else WRState(0); go=1; end
else WRState(0) end
if go==1 and MDSs[whoami+1] ~= nil then
-- Where policy
targets[whoami+1] = MDSs[whoami]["load"]*%g
end
)lua",
                cpu_threshold, spill_fraction);
  p.when = buf;
  p.howmuch = "{\"small_first\"}";
  return p;
}

MantlePolicy adaptable() {
  MantlePolicy p;
  // Listing 4. As printed the listing assigns `max=0`, which shadows the
  // env function max() and would fault on the next line in real Lua; the
  // accumulator is renamed `m` here.
  p.metaload = "IWR + IRD";
  p.mdsload = "MDSs[i][\"all\"]";
  p.when = R"lua(
m=0
for i=1,#MDSs do
  m = max(MDSs[i]["load"], m)
end
myLoad = MDSs[whoami]["load"]
if myLoad>total/2 and myLoad>=m then
  targetLoad=total/#MDSs
  for i=1,#MDSs do
    if i~=whoami and MDSs[i]["load"]<targetLoad then
      targets[i]=targetLoad-MDSs[i]["load"]
    end
  end
end
)lua";
  p.howmuch = "{\"half\",\"small\",\"big\",\"big_small\"}";
  return p;
}

}  // namespace scripts

}  // namespace mantle::core

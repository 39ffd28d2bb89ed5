#include "safety/fuzz.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "balancers/builtin.hpp"
#include "common/rng.hpp"
#include "core/mantle.hpp"
#include "lua/interp.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mantle::safety {

using cluster::Balancer;
using cluster::ClusterView;
using cluster::HeartbeatPayload;

namespace {

constexpr double kQNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kPosInf = std::numeric_limits<double>::infinity();

std::string num_sig(double d) {
  if (std::isnan(d)) return "nan";
  if (std::isinf(d)) return d > 0 ? "inf" : "-inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

/// Deterministic deep rendering for decision signatures: tables print
/// their sorted contents, not their heap address (tostring() would make
/// every table-returning hook look nondeterministic).
std::string value_sig(const lua::Value& v, int depth = 0) {
  if (v.is_table()) {
    if (depth > 4) return "{...}";
    std::string out = "{";
    for (const auto& [k, val] : v.table()->num_keys)
      out += "[" + num_sig(k) + "]=" + value_sig(val, depth + 1) + ",";
    for (const auto& [k, val] : v.table()->str_keys)
      out += k + "=" + value_sig(val, depth + 1) + ",";
    return out + "}";
  }
  if (v.is_callable()) return "<function>";
  if (v.is_number()) return num_sig(v.number());
  return v.to_display_string();
}

// ---------------------------------------------------------------------------
// Level 1: hostile ClusterViews through real balancers.
// ---------------------------------------------------------------------------

/// Hostile value codes for heartbeat fields. Order matters: reproducers
/// print the names below and shrinking walks codes back to kBenign.
enum ValueCode {
  kBenign = 0,
  kZero,
  kNegative,
  kHuge,
  kTiny,
  // Non-finite codes: only fed to Mantle subjects (simulator heartbeats
  // are finite by construction; the Lua boundary must survive anything).
  kNan,
  kInf,
  kNegInf,
  kNumValueCodes,
};

const char* code_name(int code) {
  switch (code) {
    case kZero: return "zero";
    case kNegative: return "neg";
    case kHuge: return "huge";
    case kTiny: return "tiny";
    case kNan: return "nan";
    case kInf: return "inf";
    case kNegInf: return "-inf";
    default: return "ok";
  }
}

double code_value(int code, std::size_t i) {
  switch (code) {
    case kZero: return 0.0;
    case kNegative: return -12.5;
    case kHuge: return 1e307;
    case kTiny: return 1e-300;
    case kNan: return kQNan;
    case kInf: return kPosInf;
    case kNegInf: return -kPosInf;
    default: return 10.0 + 7.0 * static_cast<double>(i);
  }
}

struct SubjectInfo {
  const char* name;
  bool is_mantle;  // Lua policy through MantleBalancer
};

constexpr SubjectInfo kSubjects[] = {
    {"lua:original", true},       {"lua:greedy_spill", true},
    {"lua:greedy_spill_even", true}, {"lua:fill_and_spill", true},
    {"lua:adaptable", true},      {"native:original", false},
    {"native:greedy_spill", false},  {"native:greedy_spill_even", false},
    {"native:fill_and_spill", false}, {"native:adaptable", false},
};
constexpr int kNumSubjects = 10;

std::unique_ptr<Balancer> make_subject(int idx, std::uint64_t budget) {
  core::MantleBalancer::Options opt;
  opt.budget = budget;
  switch (idx) {
    case 0: return std::make_unique<core::MantleBalancer>(core::scripts::original(), opt);
    case 1: return std::make_unique<core::MantleBalancer>(core::scripts::greedy_spill(), opt);
    case 2: return std::make_unique<core::MantleBalancer>(core::scripts::greedy_spill_even(), opt);
    case 3: return std::make_unique<core::MantleBalancer>(core::scripts::fill_and_spill(), opt);
    case 4: return std::make_unique<core::MantleBalancer>(core::scripts::adaptable(), opt);
    case 5: return std::make_unique<balancers::OriginalBalancer>();
    case 6: return std::make_unique<balancers::GreedySpillBalancer>();
    case 7: return std::make_unique<balancers::GreedySpillEvenBalancer>();
    case 8: return std::make_unique<balancers::FillSpillBalancer>();
    default: return std::make_unique<balancers::AdaptableBalancer>();
  }
}

struct ViewCase {
  int subject = 0;
  int n = 1;
  int whoami = 0;
  bool starve = false;  // 64-step budget (Mantle subjects only)
  std::vector<int> load_code;
  std::vector<int> cpu_code;
  std::vector<int> q_code;
  std::vector<std::uint8_t> alive;
};

ViewCase gen_view_case(Rng& rng) {
  ViewCase c;
  c.subject = static_cast<int>(rng.uniform(0, kNumSubjects - 1));
  const bool mantle = kSubjects[c.subject].is_mantle;
  constexpr int kNs[] = {0, 1, 2, 3, 5, 8, 32, 128};
  c.n = kNs[rng.uniform(0, 7)];
  if (!mantle && c.n == 0) c.n = 1;  // natives assume membership
  const int max_code = mantle ? kNumValueCodes - 1 : kNan - 1;
  for (int i = 0; i < c.n; ++i) {
    const bool hostile = rng.uniform(0, 2) == 0;
    c.load_code.push_back(
        hostile ? static_cast<int>(rng.uniform(1, max_code)) : kBenign);
    c.cpu_code.push_back(rng.uniform(0, 5) == 0
                             ? static_cast<int>(rng.uniform(1, max_code))
                             : kBenign);
    c.q_code.push_back(rng.uniform(0, 5) == 0
                           ? static_cast<int>(rng.uniform(1, max_code))
                           : kBenign);
    c.alive.push_back(rng.uniform(0, 7) == 0 ? 0 : 1);
  }
  if (c.n == 0) {
    c.whoami = 0;
  } else if (mantle && rng.uniform(0, 7) == 0) {
    constexpr int kBad[] = {-1, -7, 0, 0, 0};
    const int pick = static_cast<int>(rng.uniform(0, 4));
    c.whoami = pick < 2 ? kBad[pick] : c.n + static_cast<int>(rng.uniform(0, 3));
  } else {
    c.whoami = static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(c.n - 1)));
  }
  c.starve = mantle && rng.uniform(0, 7) == 0;
  return c;
}

struct CaseFailure {
  std::string invariant;
  std::string detail;
};

/// Run the case once through a fresh subject; returns the decision
/// signature via `sig` and the first invariant violation (or empty).
CaseFailure run_view_once(const ViewCase& c, std::uint64_t budget,
                          std::string* sig, std::uint64_t* checks) {
  const bool mantle = kSubjects[c.subject].is_mantle;
  std::unique_ptr<Balancer> b =
      make_subject(c.subject, c.starve ? 64 : budget);
  try {
    ClusterView view;
    view.whoami = c.whoami;
    view.now = 1000000;
    view.mdss.resize(static_cast<std::size_t>(c.n));
    view.loads.resize(static_cast<std::size_t>(c.n));
    for (std::size_t i = 0; i < view.mdss.size(); ++i) {
      HeartbeatPayload& hb = view.mdss[i];
      hb.rank = static_cast<int>(i);
      hb.all_metaload = code_value(c.load_code[i], i);
      hb.auth_metaload = 0.8 * hb.all_metaload;
      hb.cpu_pct = code_value(c.cpu_code[i], i);
      hb.queue_len = code_value(c.q_code[i], i);
      hb.req_rate = 3.0;
      hb.sent_at = view.now;
      view.loads[i] = b->mdsload(hb);
      ++*checks;
      if (!std::isfinite(view.loads[i]))
        return {"mdsload-finite",
                "rank " + std::to_string(i) + " load " + num_sig(view.loads[i])};
      if (mantle && view.loads[i] < 0.0)
        return {"mdsload-nonnegative",
                "rank " + std::to_string(i) + " load " + num_sig(view.loads[i])};
      view.total_load += view.loads[i];
    }
    view.alive.assign(c.alive.begin(), c.alive.end());

    const bool go = b->when(view);
    std::vector<double> targets = b->where(view);
    *sig = go ? "go" : "stay";
    for (const double t : targets) {
      ++*checks;
      *sig += "," + num_sig(t);
      if (!std::isfinite(t))
        return {"targets-finite", "target " + num_sig(t)};
      if (mantle && t < 0.0)
        return {"targets-nonnegative", "target " + num_sig(t)};
    }
    if (mantle) {
      ++*checks;
      const auto* mb = static_cast<core::MantleBalancer*>(b.get());
      *sig += ";errs=" + std::to_string(mb->hook_errors());
      if (mb->hook_errors() > 0 && mb->last_error().empty())
        return {"error-reported", "hook_errors without last_error"};
    }
  } catch (const std::exception& e) {
    return {"no-exception-escape", e.what()};
  } catch (...) {
    return {"no-exception-escape", "non-standard exception"};
  }
  return {};
}

CaseFailure run_view_case(const ViewCase& c, std::uint64_t budget,
                          std::uint64_t* checks) {
  std::string sig_a, sig_b;
  CaseFailure f = run_view_once(c, budget, &sig_a, checks);
  if (!f.invariant.empty()) return f;
  f = run_view_once(c, budget, &sig_b, checks);
  if (!f.invariant.empty()) return f;
  ++*checks;
  if (sig_a != sig_b)
    return {"determinism", "run1 {" + sig_a + "} run2 {" + sig_b + "}"};
  return {};
}

std::string codes_text(const std::vector<int>& codes) {
  std::string out = "[";
  for (std::size_t i = 0; i < codes.size(); ++i)
    out += std::string(i ? "," : "") + code_name(codes[i]);
  return out + "]";
}

std::string view_repro(const ViewCase& c, const CaseFailure& f) {
  std::string out = "view subject=";
  out += kSubjects[c.subject].name;
  out += " n=" + std::to_string(c.n);
  out += " whoami=" + std::to_string(c.whoami);
  out += " loads=" + codes_text(c.load_code);
  out += " cpu=" + codes_text(c.cpu_code);
  out += " q=" + codes_text(c.q_code);
  out += " alive=[";
  for (std::size_t i = 0; i < c.alive.size(); ++i)
    out += std::string(i ? "," : "") + (c.alive[i] ? "1" : "0");
  out += "]";
  if (c.starve) out += " starve=1";
  out += " :: " + f.invariant;
  return out;
}

/// Shrink: walk every hostile knob back to benign, keep reductions that
/// still fail (on the *same* invariant, so we don't chase a moving bug).
ViewCase shrink_view(ViewCase c, const std::string& invariant,
                     std::uint64_t budget, std::uint64_t* checks) {
  const auto still_fails = [&](const ViewCase& cand) {
    return run_view_case(cand, budget, checks).invariant == invariant;
  };
  for (int pass = 0; pass < 2; ++pass) {
    // Drop trailing ranks.
    while (c.n > 1) {
      ViewCase cand = c;
      --cand.n;
      cand.load_code.pop_back();
      cand.cpu_code.pop_back();
      cand.q_code.pop_back();
      cand.alive.pop_back();
      if (cand.whoami >= cand.n) cand.whoami = cand.n - 1;
      if (!still_fails(cand)) break;
      c = cand;
    }
    // Benign-ize one field at a time.
    for (int i = 0; i < c.n; ++i) {
      for (std::vector<int>* v : {&c.load_code, &c.cpu_code, &c.q_code}) {
        if ((*v)[static_cast<std::size_t>(i)] == kBenign) continue;
        ViewCase cand = c;
        const int saved = (*v)[static_cast<std::size_t>(i)];
        std::vector<int>* cv = v == &c.load_code   ? &cand.load_code
                               : v == &c.cpu_code ? &cand.cpu_code
                                                  : &cand.q_code;
        (*cv)[static_cast<std::size_t>(i)] = kBenign;
        if (still_fails(cand))
          (*v)[static_cast<std::size_t>(i)] = kBenign;
        else
          (*v)[static_cast<std::size_t>(i)] = saved;
      }
      if (!c.alive[static_cast<std::size_t>(i)]) {
        ViewCase cand = c;
        cand.alive[static_cast<std::size_t>(i)] = 1;
        if (still_fails(cand)) c.alive[static_cast<std::size_t>(i)] = 1;
      }
    }
    if (c.starve) {
      ViewCase cand = c;
      cand.starve = false;
      if (still_fails(cand)) c.starve = false;
    }
    if (c.whoami != 0 && c.n > 0) {
      ViewCase cand = c;
      cand.whoami = 0;
      if (still_fails(cand)) c.whoami = 0;
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Level 2: hostile Lua environments against raw hook sources.
// ---------------------------------------------------------------------------

enum EnvMutation {
  kDropRow = 0,     // MDSs[2] = nil
  kFracKey,         // MDSs[1.5] = {...}
  kStrKey,          // MDSs["x"] = 3.14
  kCycle,           // MDSs[1].self = MDSs
  kRowNotTable,     // MDSs[1] = 42
  kTargetsNumber,   // targets = 5
  kWhoamiOOB,       // whoami = n + 3
  kWhoamiNaN,       // whoami = 0/0
  kTotalNaN,        // total = 0/0
  kNegLoads,        // every load field negative
  kNumEnvMutations,
};

const char* mutation_name(int m) {
  switch (m) {
    case kDropRow: return "drop-row";
    case kFracKey: return "frac-key";
    case kStrKey: return "str-key";
    case kCycle: return "cycle";
    case kRowNotTable: return "row-not-table";
    case kTargetsNumber: return "targets-number";
    case kWhoamiOOB: return "whoami-oob";
    case kWhoamiNaN: return "whoami-nan";
    case kTotalNaN: return "total-nan";
    case kNegLoads: return "neg-loads";
  }
  return "?";
}

constexpr const char* kHookNames[] = {"metaload", "mdsload", "when", "where",
                                      "howmuch"};

struct EnvCase {
  int policy = 0;  // index into the five Lua scripts
  int hook = 0;    // 0..4
  int n = 2;
  std::uint32_t muts = 0;  // bitmask of EnvMutation
  bool starve = false;
};

core::MantlePolicy policy_scripts(int idx) {
  switch (idx) {
    case 0: return core::scripts::original();
    case 1: return core::scripts::greedy_spill();
    case 2: return core::scripts::greedy_spill_even();
    case 3: return core::scripts::fill_and_spill();
    default: return core::scripts::adaptable();
  }
}

const char* policy_name(int idx) {
  switch (idx) {
    case 0: return "original";
    case 1: return "greedy_spill";
    case 2: return "greedy_spill_even";
    case 3: return "fill_and_spill";
    default: return "adaptable";
  }
}

std::string hook_source(const core::MantlePolicy& p, int* hook) {
  for (int k = 0; k < 5; ++k) {
    const int h = (*hook + k) % 5;
    const std::string& src = h == 0   ? p.metaload
                             : h == 1 ? p.mdsload
                             : h == 2 ? p.when
                             : h == 3 ? p.where
                                      : p.howmuch;
    if (!src.empty()) {
      *hook = h;
      return src;
    }
  }
  return "return 0";
}

EnvCase gen_env_case(Rng& rng) {
  EnvCase c;
  c.policy = static_cast<int>(rng.uniform(0, 4));
  c.hook = static_cast<int>(rng.uniform(0, 4));
  constexpr int kNs[] = {1, 2, 3, 5};
  c.n = kNs[rng.uniform(0, 3)];
  const std::uint64_t nmuts = rng.uniform(1, 3);
  for (std::uint64_t i = 0; i < nmuts; ++i)
    c.muts |= 1u << rng.uniform(0, kNumEnvMutations - 1);
  c.starve = rng.uniform(0, 7) == 0;
  return c;
}

/// Build the hostile hook environment in `in`; returns the MDSs table so
/// the caller can break reference cycles afterwards.
lua::TablePtr bind_env(lua::Interp& in, const EnvCase& c) {
  using lua::Value;
  auto mdss = lua::make_table();
  double total = 0.0;
  for (int i = 1; i <= c.n; ++i) {
    auto row = lua::make_table();
    const double load =
        (c.muts & (1u << kNegLoads)) ? -5.0 * i : 10.0 * i;
    row->set_str("auth", Value(0.8 * load));
    row->set_str("all", Value(load));
    row->set_str("cpu", Value(25.0 + i));
    row->set_str("mem", Value(40.0));
    row->set_str("q", Value(2.0));
    row->set_str("req", Value(3.0));
    row->set_str("load", Value(load));
    row->set_str("alive", Value(1.0));
    mdss->set_num(i, Value(row));
    total += load;
  }
  if ((c.muts & (1u << kDropRow)) && c.n >= 2) mdss->set_num(2, Value{});
  if (c.muts & (1u << kFracKey)) mdss->set_num(1.5, Value(7.0));
  if (c.muts & (1u << kStrKey)) mdss->set_str("x", Value(3.14));
  if (c.muts & (1u << kCycle)) {
    const Value row = mdss->get_num(1);
    if (row.is_table()) row.table()->set_str("self", Value(mdss));
  }
  if (c.muts & (1u << kRowNotTable)) mdss->set_num(1, Value(42.0));

  in.set_global("MDSs", Value(mdss));
  in.set_global("whoami", (c.muts & (1u << kWhoamiNaN)) ? Value(kQNan)
                          : (c.muts & (1u << kWhoamiOOB))
                              ? Value(static_cast<double>(c.n + 3))
                              : Value(1.0));
  in.set_global("total", (c.muts & (1u << kTotalNaN)) ? Value(kQNan)
                                                      : Value(total));
  in.set_global("targets", (c.muts & (1u << kTargetsNumber))
                               ? Value(5.0)
                               : Value(lua::make_table()));
  in.set_global("authmetaload", Value(8.0));
  in.set_global("allmetaload", Value(10.0));
  in.set_global("i", Value(1.0));
  for (const char* g : {"IRD", "IWR", "READDIR", "FETCH", "STORE"})
    in.set_global(g, Value(2.0));

  const auto pick2 = [](std::vector<Value>& a, bool want_max) {
    const double x = !a.empty() && a[0].is_number() ? a[0].number() : 0.0;
    const double y = a.size() > 1 && a[1].is_number() ? a[1].number() : 0.0;
    return std::vector<Value>{Value(want_max == (x > y) ? x : y)};
  };
  in.set_function("max", [pick2](std::vector<Value>& a, lua::Interp&) {
    return pick2(a, true);
  });
  in.set_function("min", [pick2](std::vector<Value>& a, lua::Interp&) {
    return pick2(a, false);
  });
  auto slot = std::make_shared<Value>(Value(0.0));
  in.set_function("WRstate", [slot](std::vector<Value>& a, lua::Interp&) {
    if (!a.empty()) *slot = a[0];
    return std::vector<Value>{};
  });
  in.set_function("RDstate", [slot](std::vector<Value>&, lua::Interp&) {
    return std::vector<Value>{*slot};
  });
  return mdss;
}

std::string run_env_once(const EnvCase& c, const lua::CompiledChunk& chunk,
                         std::uint64_t budget, CaseFailure* fail) {
  lua::Interp in;
  in.set_budget(c.starve ? 64 : budget);
  lua::TablePtr mdss;
  std::string sig;
  try {
    mdss = bind_env(in, c);
    const lua::RunResult r = in.run(chunk);
    sig = r.ok ? "ok:" + value_sig(r.first()) : "err:" + r.error;
  } catch (const std::exception& e) {
    *fail = {"no-exception-escape", e.what()};
  } catch (...) {
    *fail = {"no-exception-escape", "non-standard exception"};
  }
  if (mdss) mdss->clear();  // break MDSs[1].self = MDSs reference cycles
  return sig;
}

lua::CompiledChunk compile_hook(std::string src, int hook) {
  // Table-1 style `if <cond> then` when-fragments are completed the same
  // way MantleBalancer's classifier does before running them.
  if (hook == 2) {
    std::string t = src;
    while (!t.empty() && (t.back() == ' ' || t.back() == '\n' ||
                          t.back() == '\t' || t.back() == '\r'))
      t.pop_back();
    if (t.size() >= 4 && t.compare(t.size() - 4, 4, "then") == 0)
      src = t + " go = 1 end";
  }
  lua::CompiledChunk ch = lua::compile_expr(src, "fuzz");
  if (!ch.ok()) ch = lua::compile(src, "fuzz");
  return ch;
}

CaseFailure run_env_case(const EnvCase& c, std::uint64_t budget,
                         std::uint64_t* checks) {
  int hook = c.hook;
  const core::MantlePolicy p = policy_scripts(c.policy);
  const std::string src = hook_source(p, &hook);
  const lua::CompiledChunk chunk = compile_hook(src, hook);

  CaseFailure f;
  const std::string sig_a = run_env_once(c, chunk, budget, &f);
  ++*checks;
  if (!f.invariant.empty()) return f;
  const std::string sig_b = run_env_once(c, chunk, budget, &f);
  ++*checks;
  if (!f.invariant.empty()) return f;
  ++*checks;
  if (sig_a != sig_b)
    return {"determinism", "run1 {" + sig_a + "} run2 {" + sig_b + "}"};
  return {};
}

std::string env_repro(const EnvCase& c, const CaseFailure& f) {
  int hook = c.hook;
  const core::MantlePolicy p = policy_scripts(c.policy);
  hook_source(p, &hook);  // resolve the hook actually exercised
  std::string out = "env policy=";
  out += policy_name(c.policy);
  out += " hook=";
  out += kHookNames[hook];
  out += " n=" + std::to_string(c.n);
  out += " muts=[";
  bool first = true;
  for (int m = 0; m < kNumEnvMutations; ++m)
    if (c.muts & (1u << m)) {
      out += std::string(first ? "" : ",") + mutation_name(m);
      first = false;
    }
  out += "]";
  if (c.starve) out += " starve=1";
  out += " :: " + f.invariant;
  return out;
}

EnvCase shrink_env(EnvCase c, const std::string& invariant,
                   std::uint64_t budget, std::uint64_t* checks) {
  const auto still_fails = [&](const EnvCase& cand) {
    return run_env_case(cand, budget, checks).invariant == invariant;
  };
  for (int m = 0; m < kNumEnvMutations; ++m) {
    if (!(c.muts & (1u << m))) continue;
    EnvCase cand = c;
    cand.muts &= ~(1u << m);
    if (still_fails(cand)) c.muts = cand.muts;
  }
  while (c.n > 1) {
    EnvCase cand = c;
    --cand.n;
    if (!still_fails(cand)) break;
    c = cand;
  }
  if (c.starve) {
    EnvCase cand = c;
    cand.starve = false;
    if (still_fails(cand)) c.starve = false;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Level 3: hostile arguments to the stdlib surface hooks rely on.
// ---------------------------------------------------------------------------

constexpr const char* kNumPool[] = {
    "0",       "-1",    "0.5",   "-0.5",  "3",      "1e15",
    "-1e15",   "1e308", "-1e308", "(1/0)", "(-1/0)", "(0/0)",
    "9007199254740993", "1e20", "-7.25",
};
constexpr int kNumPoolSize = 15;

constexpr const char* kStrPool[] = {
    "'  42  '", "' \\t0x1F '", "'1e3\\n'", "'abc'",      "'0x'",
    "'-0x8'",   "''",          "'0X10'",   "'  -3.5e2  '", "'nan'",
};
constexpr int kStrPoolSize = 10;

/// $A/$B -> numeric pool picks, $S -> string pool pick.
constexpr const char* kLibTemplates[] = {
    "return string.format('%d', $A)",
    "return string.format('%x', $A)",
    "return string.format('%f', $A)",
    "return string.format('%g %s', $A, $A)",
    "return string.format('%5.2f', $A)",
    "return math.fmod($A, $B)",
    "return string.sub('abcdefgh', $A, $B)",
    "return string.rep('ab', $A)",
    "local t = {1, 2, 3} table.insert(t, $A, 9) return #t",
    "local t = {1, 2, 3} return table.remove(t, $A)",
    "return select($A, 1, 2, 3)",
    "return unpack({1, 2, 3}, $A, $B)",
    "return tonumber($S)",
    "return tostring($A)",
    "local t = {} t[$A] = 1 return #t",
    "return tonumber($S) == nil and 0 or tonumber($S) + 1",
};
constexpr int kNumLibTemplates = 16;

std::string build_lib_script(Rng& rng) {
  std::string s = kLibTemplates[rng.uniform(0, kNumLibTemplates - 1)];
  const std::string a = kNumPool[rng.uniform(0, kNumPoolSize - 1)];
  const std::string b = kNumPool[rng.uniform(0, kNumPoolSize - 1)];
  const std::string str = kStrPool[rng.uniform(0, kStrPoolSize - 1)];
  for (std::size_t pos; (pos = s.find("$A")) != std::string::npos;)
    s.replace(pos, 2, a);
  for (std::size_t pos; (pos = s.find("$B")) != std::string::npos;)
    s.replace(pos, 2, b);
  for (std::size_t pos; (pos = s.find("$S")) != std::string::npos;)
    s.replace(pos, 2, str);
  return s;
}

CaseFailure run_lib_case(const std::string& script, std::uint64_t budget,
                         std::uint64_t* checks) {
  const lua::CompiledChunk chunk = lua::compile(script, "fuzz");
  std::string sigs[2];
  for (std::string& sig : sigs) {
    ++*checks;
    try {
      lua::Interp in;
      in.set_budget(budget);
      const lua::RunResult r = in.run(chunk);
      sig = r.ok ? "ok:" + value_sig(r.first()) : "err:" + r.error;
    } catch (const std::exception& e) {
      return {"no-exception-escape", e.what()};
    } catch (...) {
      return {"no-exception-escape", "non-standard exception"};
    }
  }
  ++*checks;
  if (sigs[0] != sigs[1])
    return {"determinism", "run1 {" + sigs[0] + "} run2 {" + sigs[1] + "}"};
  return {};
}

}  // namespace

FuzzResult run_fuzz(const FuzzConfig& cfg, obs::MetricsRegistry* metrics,
                    obs::TraceSink* trace) {
  FuzzResult res;
  Rng rng(cfg.seed);

  for (std::uint64_t it = 0; it < cfg.iters; ++it) {
    if (res.failures.size() >= cfg.max_failures) break;
    ++res.iterations;
    FuzzFailure fail;
    fail.iteration = it;

    switch (it % 3) {
      case 0: {
        fail.level = "view";
        const ViewCase c = gen_view_case(rng);
        fail.subject = kSubjects[c.subject].name;
        const CaseFailure f = run_view_case(c, cfg.budget, &res.checks);
        if (f.invariant.empty()) continue;
        const ViewCase mini =
            shrink_view(c, f.invariant, cfg.budget, &res.checks);
        const CaseFailure mf = run_view_case(mini, cfg.budget, &res.checks);
        fail.invariant = f.invariant;
        fail.detail = mf.detail.empty() ? f.detail : mf.detail;
        fail.reproducer = view_repro(mini, f);
        break;
      }
      case 1: {
        fail.level = "env";
        const EnvCase c = gen_env_case(rng);
        fail.subject = policy_name(c.policy);
        const CaseFailure f = run_env_case(c, cfg.budget, &res.checks);
        if (f.invariant.empty()) continue;
        const EnvCase mini =
            shrink_env(c, f.invariant, cfg.budget, &res.checks);
        const CaseFailure mf = run_env_case(mini, cfg.budget, &res.checks);
        fail.invariant = f.invariant;
        fail.detail = mf.detail.empty() ? f.detail : mf.detail;
        fail.reproducer = env_repro(mini, f);
        break;
      }
      default: {
        fail.level = "stdlib";
        const std::string script = build_lib_script(rng);
        fail.subject = "luam-stdlib";
        const CaseFailure f = run_lib_case(script, cfg.budget, &res.checks);
        if (f.invariant.empty()) continue;
        fail.invariant = f.invariant;
        fail.detail = f.detail;
        fail.reproducer = "stdlib script={" + script + "} :: " + f.invariant;
        break;
      }
    }
    res.failures.push_back(std::move(fail));
  }

  if (metrics != nullptr) {
    metrics
        ->counter("mantle_fuzz_iterations_total", "fuzz cases executed")
        .inc(res.iterations);
    metrics
        ->counter("mantle_fuzz_crashes_total",
                  "fuzz invariant violations found")
        .inc(res.failures.size());
  }
  if (trace != nullptr)
    for (const FuzzFailure& f : res.failures)
      trace->event(f.iteration, obs::EventKind::FuzzCrash, -1, -1,
                   f.level + ":" + f.invariant,
                   {{"iteration", static_cast<double>(f.iteration)}});
  return res;
}

std::string FuzzResult::corpus() const {
  std::string out;
  for (const FuzzFailure& f : failures) {
    out += "iter=" + std::to_string(f.iteration) + " " + f.reproducer;
    if (!f.detail.empty()) out += " :: " + f.detail;
    out += "\n";
  }
  return out;
}

std::string FuzzResult::to_json() const {
  std::string out = "{\"checks\":" + std::to_string(checks);
  out += ",\"failures\":[";
  bool first = true;
  for (const FuzzFailure& f : failures) {
    if (!first) out += ",";
    first = false;
    out += "{\"detail\":" + obs::json_string(f.detail);
    out += ",\"invariant\":" + obs::json_string(f.invariant);
    out += ",\"iteration\":" + std::to_string(f.iteration);
    out += ",\"level\":" + obs::json_string(f.level);
    out += ",\"reproducer\":" + obs::json_string(f.reproducer);
    out += ",\"subject\":" + obs::json_string(f.subject) + "}";
  }
  out += "],\"iterations\":" + std::to_string(iterations) + "}";
  return out;
}

}  // namespace mantle::safety

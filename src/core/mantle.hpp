#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cluster/balancer.hpp"
#include "lua/interp.hpp"
#include "lua/lower.hpp"
#include "store/object_store.hpp"

/// \file mantle.hpp
/// Mantle: the programmable metadata balancer. A MantleBalancer is a
/// cluster::Balancer whose five decisions are made by injected Lua code
/// running in the environment of the paper's Table 2:
///
///   globals while evaluating hooks
///     whoami                      current MDS (1-based, as in the paper)
///     MDSs[i]["auth"|"all"|"cpu"|"mem"|"q"|"req"|"load"|"alive"]
///     total                       sum of MDSs[i]["load"] over alive ranks
///     authmetaload, allmetaload   current MDS's metadata loads
///     IRD, IWR, READDIR, FETCH, STORE   (metaload hook only)
///     i                           index being scored (mdsload hook only)
///     targets[i]                  output of the where hook
///     WRstate(s) / RDstate()      persistent per-balancer state
///     max(a,b), min(a,b)
///
///   hooks (injected via config keys, as `ceph tell mds.N injectargs ...`)
///     mds_bal_metaload   expression or chunk assigning `metaload`
///     mds_bal_mdsload    expression over MDSs[i] or chunk assigning `mdsload`
///     mds_bal_when       condition; three accepted forms (see below)
///     mds_bal_where      chunk filling `targets`
///     mds_bal_howmuch    expression: list of dirfrag selector names
///
/// The `when` hook accepts (a) an `if <cond> then` fragment, exactly as
/// printed in the paper's Table 1 ("when: if my load > ... then"); (b) a
/// chunk that sets the global `go` to 1 (Listing 3 style); or (c) a chunk
/// whose last statement is `return <bool>`. A `when` chunk may also fill
/// `targets` directly (Listings 1-3 inline their where policy); if it
/// does and no separate `where` hook is set, those targets are used.
///
/// MDSs[i]["alive"] is 1 for ranks heartbeating normally and 0 for ranks
/// the laggy-peer detector has written off (heartbeat older than
/// laggy_factor * bal_interval); dead ranks also show load 0 and are
/// excluded from `total`. Policies may branch on it, but they do not have
/// to: the mechanism refuses to export toward a dead rank regardless.
///
/// The `targets` a hook produces are sanitized before the mechanism acts
/// on them: non-finite or negative entries clamp to 0, fractional or
/// out-of-range indices are ignored, and each occurrence increments
/// hook_errors() — a buggy policy degrades to "no migration", never to a
/// corrupted export.

namespace mantle::obs {
class Counter;
class Histogram;
}  // namespace mantle::obs

namespace mantle::core {

/// The five injectable policies.
struct MantlePolicy {
  std::string metaload;
  std::string mdsload;
  std::string when;
  std::string where;
  std::string howmuch;  // e.g. {"big_first"} or {"half","small","big_small"}
};

/// Pre-canned policies replicating the paper's listings (runnable through
/// the real interpreter; the native C++ twins live in balancers/builtin).
namespace scripts {
MantlePolicy original();           // Table 1
MantlePolicy greedy_spill();       // Listing 1
MantlePolicy greedy_spill_even();  // Listing 2 (see EXPERIMENTS.md note)
MantlePolicy fill_and_spill(double cpu_threshold = 48.0,
                            double spill_fraction = 0.25);  // Listing 3
MantlePolicy adaptable();          // Listing 4
}  // namespace scripts

class MantleBalancer final : public cluster::Balancer {
 public:
  /// Compile-once pipeline counters. Every hook source is parsed exactly
  /// once per injection: `misses` counts first compiles (one per non-empty
  /// hook, at construction), `recompiles` counts re-injections replacing a
  /// cached program, `hits` counts evaluations served from the cache, and
  /// `parses` counts raw parser invocations (a hook that is not a bare
  /// expression costs one failed expression parse plus one chunk parse).
  struct PolicyCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t recompiles = 0;
    std::uint64_t parses = 0;
  };

  struct Options {
    std::uint64_t budget = 1 << 20;  // interpreter steps per hook call
    std::uint64_t lua_seed = 0;      // for math.random in policies
    /// Optional durable backing for WRstate/RDstate. The paper kept the
    /// state in temporary files and lists "store them in RADOS objects"
    /// as future work; wiring an ObjectStore here does exactly that —
    /// state survives balancer reconstruction (e.g. an MDS restart).
    store::ObjectStore* state_store = nullptr;
    std::string state_oid;  // object name, e.g. "mantle.state.mds0"
  };

  MantleBalancer(MantlePolicy policy, Options opt);
  explicit MantleBalancer(MantlePolicy policy)
      : MantleBalancer(std::move(policy), Options{}) {}

  std::string name() const override { return "mantle"; }

  double metaload(const cluster::PopSnapshot& pop) const override;
  double mdsload(const cluster::HeartbeatPayload& hb) const override;
  bool when(const cluster::ClusterView& view) override;
  std::vector<double> where(const cluster::ClusterView& view) override;
  std::vector<std::string> howmuch() const override;

  /// Register per-hook instrumentation: invocation/error counters, a
  /// sanitization counter, and an interpreter-step histogram per hook.
  /// Steps stand in for wall time — they measure the same thing (how much
  /// work the injected policy does) while staying deterministic, so
  /// instrumented runs remain byte-reproducible. A lowered load hook
  /// records the steps the interpreter would have charged.
  void attach_observability(obs::MetricsRegistry* metrics,
                            obs::TraceSink* trace) override;

  /// Replace one hook at runtime (the `injectargs` path). Returns the
  /// validation error, or empty on success.
  std::string inject(const std::string& key, const std::string& script);

  const MantlePolicy& policy() const { return policy_; }

  /// Number of hook evaluations that failed (bad policies never take the
  /// MDS down; they just skip that tick and are counted here).
  std::uint64_t hook_errors() const { return hook_errors_; }
  const std::string& last_error() const { return last_error_; }

  /// Policy-cache counters (also exported as mantle_policy_cache_*_total
  /// once attach_observability() has run).
  const PolicyCacheStats& cache_stats() const { return cache_stats_; }

  /// True if the hook injected under `key` ("mds_bal_metaload" or
  /// "mds_bal_mdsload") runs as a lowered numeric program instead of on
  /// the interpreter (see HookProgram::lowered).
  bool is_lowered(const std::string& key) const;

  /// Cumulative evaluation cost for the provenance recorder. Always
  /// tracked (unlike the registry handles, which need
  /// attach_observability()), so recorded decisions carry real deltas
  /// even on bare balancers.
  EvalStats eval_stats() const override;

 private:
  /// Index into the per-hook instrumentation arrays.
  enum Hook { kMetaload = 0, kMdsload, kWhen, kWhere, kHowmuch, kNumHooks };

  /// One hook's compiled form. Classification (bare expression vs chunk,
  /// Table-1 `... then` fragment) happens at compile time, never per call.
  ///
  /// A metaload or mdsload expression that is plain arithmetic over its
  /// inputs (IRD IWR READDIR FETCH STORE, or MDSs[i]["<field>"]) is also
  /// lowered to `lowered`, which evaluates it from the doubles the hook
  /// binds instead of through the interpreter. Value, steps charged and
  /// Lua state are the same either way (docs/PERFORMANCE.md, "Load hooks
  /// without the interpreter"); `chunk` still backs every other hook and
  /// any expression the lowering declines.
  struct HookProgram {
    std::string source;        // what was compiled (cache key)
    lua::CompiledChunk chunk;  // ready-to-run AST (or compile error)
    std::optional<lua::NumProgram> lowered;
    bool is_expr = false;      // compiled via compile_expr()
    bool then_style = false;   // when-hook "if <cond> then" fragment
    bool compiled = false;
  };

  /// Globals the host binds to a non-nil value on every call.
  enum Bound {
    kMDSs = 0, kI, kIRD, kIWR, kReaddir, kFetch, kStore,
    kTargets, kWhoami, kTotal, kAuthMetaload, kAllMetaload, kNumBound
  };

  /// The eight MDSs[i] fields: auth all cpu mem q req load alive.
  using RowValues = std::array<double, 8>;

  /// One MDSs[i] row reused across ticks: the table plus stable pointers
  /// to its eight value cells. Rebuilt only if a policy changed the row's
  /// shape (added/erased keys) — detected via erase_version + key counts.
  struct RowCache {
    lua::TablePtr row;
    std::uint32_t version = 0;
    lua::Value* cells[8] = {};  // auth all cpu mem q req load alive

    void update(const RowValues& values);
  };

  /// The when/where hook environment, built once and refreshed in place.
  struct ViewEnv {
    lua::TablePtr mdss;
    lua::TablePtr targets;
    std::uint32_t mdss_version = 0;
    std::uint32_t targets_version = 0;
    std::vector<RowCache> rows;
    std::vector<lua::Value*> mdss_cells;    // MDSs[i] container cells
    std::vector<lua::Value*> target_cells;  // targets[i] cells
  };

  /// Single-row MDSs environment for the mdsload hook, one per rank.
  struct SoloEnv {
    lua::TablePtr mdss;
    std::uint32_t version = 0;
    double idx = 0.0;
    RowCache row;
    lua::Value* cell = nullptr;
  };

  /// The cached compiled program for hook `h`, (re)compiling iff `src`
  /// differs from what is cached. Counts hits/misses/recompiles.
  const HookProgram& program(Hook h, const std::string& src) const;
  /// Eagerly compile every non-empty hook of the current policy.
  void compile_policy();
  /// Push cache-stat deltas into the registry counters. The five
  /// construction-time compiles predate attach_observability(), so the
  /// counters are reconciled from cache_stats_ instead of incremented
  /// inline (pushed_ remembers what the registry has already seen).
  void sync_cache_counters() const;

  /// Global `g`'s value cell, for writing a non-nil value without
  /// set_global's string-keyed lookup. Cells are re-taken whenever a
  /// global has been erased (the globals table's erase_version moved).
  lua::Value& global(Bound g) const;
  void bind_view(const cluster::ClusterView& view);
  void bind_state_functions();
  /// Run a hook's chunk on the interpreter, remembering its steps.
  lua::RunResult run(const HookProgram& p) const;
  /// Evaluate a load hook; `inputs` are its lowering inputs' values.
  double eval_load_hook(Hook h, const std::string& script,
                        const char* result_global, const double* inputs) const;
  /// Bump the hook's call/error counters and record the steps of the
  /// latest evaluation. No-op until attach_observability().
  void note_hook(Hook h, bool failed) const;

  MantlePolicy policy_;
  Options opt_;
  mutable lua::Interp lua_;
  mutable std::uint64_t total_steps_ = 0;  // Lua steps across all hook calls
  /// Steps of the latest evaluation, lowered or interpreted: what
  /// lua_.steps_used() would read had every evaluation run on lua_.
  mutable std::uint64_t last_steps_ = 0;
  mutable std::uint64_t hook_errors_ = 0;
  mutable std::string last_error_;
  lua::Value state_;                     // WRstate/RDstate slot
  std::vector<double> pending_targets_;  // filled by a combined when-hook
  bool when_filled_targets_ = false;

  mutable HookProgram programs_[kNumHooks];
  mutable PolicyCacheStats cache_stats_;
  mutable PolicyCacheStats pushed_;  // already reflected in the registry
  mutable ViewEnv view_env_;
  mutable std::vector<SoloEnv> solo_envs_;
  mutable lua::Value* bound_cells_[kNumBound] = {};
  mutable std::uint32_t bound_version_ = 0;  // globals' erase_version
  mutable Time last_now_ = 0;     // latest view.now seen (trace timestamps)
  mutable int last_whoami_ = -1;  // latest view.whoami seen

  // Observability handles (owned by the cluster's registry; null until
  // attach_observability). The pointees are updated from const hooks.
  obs::Counter* hook_calls_[kNumHooks] = {};
  obs::Counter* hook_fail_[kNumHooks] = {};
  obs::Histogram* hook_steps_[kNumHooks] = {};
  obs::Counter* sanitized_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* cache_recompiles_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
};

/// Validate a policy before injecting it into a live cluster: parse every
/// hook and dry-run it against a synthetic two-MDS view with an
/// instruction budget, so `while 1 do end` is rejected instead of taking
/// the MDS down (the paper's "Analyzing Security and Safety" item).
/// Returns "" on success or a description of the first problem.
std::string validate_policy(const MantlePolicy& policy,
                            std::uint64_t budget = 1 << 20);

}  // namespace mantle::core

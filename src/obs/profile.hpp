// Wall-clock phase profiler: RAII scoped timers over the real
// (steady) clock, accounting where process time goes across the big
// simulator phases — engine dispatch, cluster ticks, Mantle hook
// evaluation, population sampling and trace/dump I/O.
//
// Determinism contract: the profiler measures *wall* time and
// therefore varies run to run. Its numbers must never leak into the
// deterministic MANTLE_OBS_DIR dumps — same-seed runs stay
// byte-identical with the profiler enabled. Wall-clock output goes
// only to (a) bench stdout phase tables, (b) the opt-in
// MANTLE_PROFILE_DUMP side files, and (c) the non-default
// TraceSink::to_perfetto(&profiler) counter-track overload.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace mantle::obs {

enum class ProfilePhase : int {
  EngineDispatch = 0,  ///< Engine::run_until event loop
  ClusterTick,         ///< MdsNode balancer/heartbeat tick
  HookEval,            ///< one Mantle Lua hook invocation
  PopulationSample,    ///< mean-field ClientPopulation tick
  TraceIo,             ///< observability dump serialization + writes
};
inline constexpr int kNumProfilePhases = 5;

/// Kebab-case phase name ("engine-dispatch", ...). Stable; used as the
/// Perfetto counter-track suffix and the phase-table row label.
const char* profile_phase_name(ProfilePhase p);

/// Counter-style metric name for the phase's scope count
/// ("mantle_profile_engine_dispatch_scopes_total", ...). These names
/// follow the registry lint (counters end in _total) even though the
/// profiler keeps them out of the deterministic registry.
std::string profile_metric_name(ProfilePhase p);

/// Process-wide singleton accumulating per-phase wall/self time. It is
/// the one observability object shared across threads (every worker of
/// the harness's parallel seed sweep charges it), so all mutation is
/// relaxed-atomic.
class Profiler {
 public:
  struct PhaseStats {
    std::uint64_t scopes = 0;   ///< completed ScopedPhase instances
    std::uint64_t wall_ns = 0;  ///< inclusive wall time
    std::uint64_t self_ns = 0;  ///< wall minus time in child scopes
  };

  static Profiler& instance();

  /// Enabled by default; perfbench and tests switch it with set_enabled().
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void add(ProfilePhase p, std::uint64_t wall_ns, std::uint64_t self_ns);
  PhaseStats stats(ProfilePhase p) const;
  std::array<PhaseStats, kNumProfilePhases> snapshot() const;
  void reset();

  /// Human phase table for bench stdout (header + one row per phase).
  std::string table() const;

  /// JSON object keyed by mantle_profile_* metric names. Wall-clock —
  /// never written into deterministic dumps.
  std::string to_json() const;

 private:
  Profiler() = default;
  struct Cell {
    std::atomic<std::uint64_t> scopes{0};
    std::atomic<std::uint64_t> wall{0};
    std::atomic<std::uint64_t> self{0};
  };
  std::atomic<bool> enabled_{true};
  std::array<Cell, kNumProfilePhases> cells_;
};

/// RAII scope: times its lifetime on the steady clock and charges the
/// phase. Nesting-aware — a child's wall time is subtracted from the
/// enclosing scope's self time via a thread-local scope stack.
class ScopedPhase {
 public:
  explicit ScopedPhase(ProfilePhase p);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  ProfilePhase phase_;
  bool active_ = false;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  ScopedPhase* parent_ = nullptr;
};

}  // namespace mantle::obs

#include "obs/profile.hpp"

#include <chrono>
#include <cstdio>

namespace mantle::obs {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Innermost live scope on this thread; children charge their wall
// time to the parent so self-time stays additive.
thread_local ScopedPhase* g_top = nullptr;

// "engine-dispatch" -> "engine_dispatch" for metric-name keys.
std::string underscored(ProfilePhase p) {
  std::string s = profile_phase_name(p);
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

std::string ms(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

const char* profile_phase_name(ProfilePhase p) {
  switch (p) {
    case ProfilePhase::EngineDispatch:
      return "engine-dispatch";
    case ProfilePhase::ClusterTick:
      return "cluster-tick";
    case ProfilePhase::HookEval:
      return "hook-eval";
    case ProfilePhase::PopulationSample:
      return "population-sample";
    case ProfilePhase::TraceIo:
      return "trace-io";
  }
  return "unknown";
}

std::string profile_metric_name(ProfilePhase p) {
  return "mantle_profile_" + underscored(p) + "_scopes_total";
}

Profiler& Profiler::instance() {
  static Profiler p;
  return p;
}

void Profiler::add(ProfilePhase p, std::uint64_t wall_ns,
                   std::uint64_t self_ns) {
  Cell& c = cells_[static_cast<int>(p)];
  c.scopes.fetch_add(1, std::memory_order_relaxed);
  c.wall.fetch_add(wall_ns, std::memory_order_relaxed);
  c.self.fetch_add(self_ns, std::memory_order_relaxed);
}

Profiler::PhaseStats Profiler::stats(ProfilePhase p) const {
  const Cell& c = cells_[static_cast<int>(p)];
  PhaseStats s;
  s.scopes = c.scopes.load(std::memory_order_relaxed);
  s.wall_ns = c.wall.load(std::memory_order_relaxed);
  s.self_ns = c.self.load(std::memory_order_relaxed);
  return s;
}

std::array<Profiler::PhaseStats, kNumProfilePhases> Profiler::snapshot()
    const {
  std::array<PhaseStats, kNumProfilePhases> out{};
  for (int i = 0; i < kNumProfilePhases; ++i) {
    out[i] = stats(static_cast<ProfilePhase>(i));
  }
  return out;
}

void Profiler::reset() {
  for (Cell& c : cells_) {
    c.scopes.store(0, std::memory_order_relaxed);
    c.wall.store(0, std::memory_order_relaxed);
    c.self.store(0, std::memory_order_relaxed);
  }
}

std::string Profiler::table() const {
  std::string out;
  out += "phase              scopes      wall_ms      self_ms\n";
  for (int i = 0; i < kNumProfilePhases; ++i) {
    const ProfilePhase p = static_cast<ProfilePhase>(i);
    const PhaseStats s = stats(p);
    char line[128];
    std::snprintf(line, sizeof(line), "%-17s %7llu %12s %12s\n",
                  profile_phase_name(p),
                  static_cast<unsigned long long>(s.scopes),
                  ms(s.wall_ns).c_str(), ms(s.self_ns).c_str());
    out += line;
  }
  return out;
}

std::string Profiler::to_json() const {
  std::string out = "{";
  bool first = true;
  for (int i = 0; i < kNumProfilePhases; ++i) {
    const ProfilePhase p = static_cast<ProfilePhase>(i);
    const PhaseStats s = stats(p);
    const std::string base = "mantle_profile_" + underscored(p);
    if (!first) out += ",";
    first = false;
    out += "\"" + profile_metric_name(p) +
           "\":" + std::to_string(s.scopes);
    out += ",\"" + base + "_wall_ms\":" + ms(s.wall_ns);
    out += ",\"" + base + "_self_ms\":" + ms(s.self_ns);
  }
  out += "}";
  return out;
}

ScopedPhase::ScopedPhase(ProfilePhase p) : phase_(p) {
  Profiler& prof = Profiler::instance();
  if (!prof.enabled()) return;
  active_ = true;
  start_ns_ = now_ns();
  parent_ = g_top;
  g_top = this;
}

ScopedPhase::~ScopedPhase() {
  if (!active_) return;
  const std::uint64_t wall = now_ns() - start_ns_;
  g_top = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += wall;
  const std::uint64_t self = wall > child_ns_ ? wall - child_ns_ : 0;
  Profiler::instance().add(phase_, wall, self);
}

}  // namespace mantle::obs

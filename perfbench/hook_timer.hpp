#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/balancer.hpp"

/// \file hook_timer.hpp
/// A forwarding cluster::Balancer that times every hook of the policy it
/// wraps, for the traced run's core/lua layer numbers. It is transparent:
/// every call, including name(), eval_stats() and attach_observability(),
/// reaches the wrapped policy unchanged, so a run with the wrapper
/// installed follows the same trajectory and writes the same dumps as one
/// without (transparency_test.cpp checks this).

namespace mantle::perfbench {

class HookTimer final : public cluster::Balancer {
 public:
  enum Hook { kMetaload = 0, kMdsload, kWhen, kWhere, kHowmuch, kNumHooks };

  /// Calls and inclusive host nanoseconds spent in one hook.
  struct HookTime {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };

  explicit HookTimer(std::unique_ptr<cluster::Balancer> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  EvalStats eval_stats() const override { return inner_->eval_stats(); }
  void attach_observability(obs::MetricsRegistry* metrics,
                            obs::TraceSink* trace) override {
    inner_->attach_observability(metrics, trace);
  }

  double metaload(const cluster::PopSnapshot& pop) const override {
    const Scope t(times_[kMetaload]);
    return inner_->metaload(pop);
  }
  double mdsload(const cluster::HeartbeatPayload& hb) const override {
    const Scope t(times_[kMdsload]);
    return inner_->mdsload(hb);
  }
  bool when(const cluster::ClusterView& view) override {
    const Scope t(times_[kWhen]);
    return inner_->when(view);
  }
  std::vector<double> where(const cluster::ClusterView& view) override {
    const Scope t(times_[kWhere]);
    return inner_->where(view);
  }
  std::vector<std::string> howmuch() const override {
    const Scope t(times_[kHowmuch]);
    return inner_->howmuch();
  }

  const std::array<HookTime, kNumHooks>& times() const { return times_; }

 private:
  /// Charges its lifetime to one hook on the steady clock.
  class Scope {
   public:
    explicit Scope(HookTime& slot)
        : slot_(slot), start_(std::chrono::steady_clock::now()) {}
    ~Scope() {
      ++slot_.calls;
      slot_.ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HookTime& slot_;
    std::chrono::steady_clock::time_point start_;
  };

  std::unique_ptr<cluster::Balancer> inner_;
  mutable std::array<HookTime, kNumHooks> times_{};
};

}  // namespace mantle::perfbench

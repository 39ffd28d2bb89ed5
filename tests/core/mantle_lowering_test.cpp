/// Parity tests for MantleBalancer's lowered load hooks. For every paper
/// policy, metaload() and mdsload() on fuzz-style inputs must match a
/// reference that binds the same globals and row into a bare interpreter
/// and runs compile_expr(src): the value and its clamp, hook errors,
/// last_error(), eval_stats(), cache_stats() and every registry series the
/// load hooks feed.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/mantle.hpp"
#include "obs/metrics.hpp"

namespace mantle::core {
namespace {

using cluster::HeartbeatPayload;
using cluster::PopSnapshot;
using lua::Value;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double hostile(Rng& rng) {
  static constexpr double kPool[] = {0.0,  -0.0, 1.0,  -1.0, -250.0,
                                     kInf, -kInf, kNaN, 1e308, -1e308,
                                     std::numeric_limits<double>::max()};
  if (rng.uniform(0, 1) == 0) return rng.uniform_real(0.0, 5000.0);
  return kPool[rng.uniform(0, std::size(kPool) - 1)];
}

PopSnapshot random_pop(Rng& rng) {
  return {hostile(rng), hostile(rng), hostile(rng), hostile(rng), hostile(rng)};
}

HeartbeatPayload random_hb(Rng& rng) {
  HeartbeatPayload hb;
  hb.rank = static_cast<int>(rng.uniform(0, 8)) - 1;  // -1 .. 7
  hb.auth_metaload = hostile(rng);
  hb.all_metaload = hostile(rng);
  hb.cpu_pct = hostile(rng);
  hb.mem_pct = hostile(rng);
  hb.queue_len = hostile(rng);
  hb.req_rate = hostile(rng);
  return hb;
}

/// The load hooks on a bare interpreter, with the balancer's bookkeeping
/// (clamp, hook errors, step counts, registry series) kept by hand.
class Reference {
 public:
  enum Hook { kMeta = 0, kMds = 1 };

  Reference(const MantlePolicy& p, std::uint64_t budget)
      : steps_{obs::Histogram(obs::buckets::lua_steps()),
               obs::Histogram(obs::buckets::lua_steps())} {
    in_.set_budget(budget);
    set_policy(p);
  }

  void set_policy(const MantlePolicy& p) {
    chunk_[kMeta] = lua::compile_expr(p.metaload, "metaload");
    chunk_[kMds] = lua::compile_expr(p.mdsload, "mdsload");
  }

  double metaload(const PopSnapshot& pop) {
    in_.set_global("IRD", Value(pop.ird));
    in_.set_global("IWR", Value(pop.iwr));
    in_.set_global("READDIR", Value(pop.readdir));
    in_.set_global("FETCH", Value(pop.fetch));
    in_.set_global("STORE", Value(pop.store));
    return eval(kMeta, "metaload");
  }

  double mdsload(const HeartbeatPayload& hb) {
    const double idx = static_cast<double>(hb.rank + 1);
    lua::TablePtr row = lua::make_table();
    const double fields[] = {hb.auth_metaload, hb.all_metaload, hb.cpu_pct,
                             hb.mem_pct,       hb.queue_len,    hb.req_rate,
                             0.0,              1.0};
    const char* names[] = {"auth", "all", "cpu",  "mem",
                           "q",    "req", "load", "alive"};
    for (int f = 0; f < 8; ++f) row->set_str(names[f], Value(fields[f]));
    lua::TablePtr mdss = lua::make_table();
    mdss->set_num(idx, Value(row));
    in_.set_global("MDSs", Value(mdss));
    in_.set_global("i", Value(idx));
    return eval(kMds, "mdsload");
  }

  /// Every balancer-side count this reference predicts.
  void expect_matches(const MantleBalancer& b, obs::MetricsRegistry& reg,
                      const MantleBalancer::PolicyCacheStats& built) const {
    EXPECT_EQ(b.hook_errors(), hook_errors_);
    EXPECT_EQ(b.last_error(), last_error_);
    const cluster::Balancer::EvalStats s = b.eval_stats();
    EXPECT_EQ(s.lua_steps, total_steps_);
    EXPECT_EQ(s.hook_errors, hook_errors_);
    EXPECT_EQ(s.cache_hits, built.hits + hits_);
    EXPECT_EQ(s.cache_misses, built.misses);
    EXPECT_EQ(s.cache_recompiles, built.recompiles);
    EXPECT_EQ(b.cache_stats().hits, built.hits + hits_);
    EXPECT_EQ(b.cache_stats().misses, built.misses);
    EXPECT_EQ(b.cache_stats().recompiles, built.recompiles);
    EXPECT_EQ(b.cache_stats().parses, built.parses);
    EXPECT_EQ(reg.counter("mantle_policy_cache_hits_total").value(),
              built.hits + hits_);
    EXPECT_EQ(reg.counter("mantle_targets_sanitized_total").value(),
              sanitized_);
    for (const Hook h : {kMeta, kMds}) {
      const std::string base = h == kMeta ? "mantle_metaload" : "mantle_mdsload";
      EXPECT_EQ(reg.counter(base + "_calls_total").value(), calls_[h]) << base;
      EXPECT_EQ(reg.counter(base + "_errors_total").value(), errors_[h])
          << base;
      const obs::Histogram& got =
          reg.histogram(base + "_lua_steps", obs::buckets::lua_steps());
      EXPECT_EQ(got.count(), steps_[h].count()) << base;
      EXPECT_EQ(got.sum(), steps_[h].sum()) << base;
      EXPECT_EQ(got.bucket_counts(), steps_[h].bucket_counts()) << base;
    }
  }

  std::uint64_t hook_errors() const { return hook_errors_; }

 private:
  /// MantleBalancer::eval_load_hook + note_hook over the interpreter.
  double eval(Hook h, const char* name) {
    ++hits_;
    const lua::RunResult r = in_.run(chunk_[h]);
    const std::uint64_t errs = hook_errors_;
    double v = 0.0;
    if (!r.ok) {
      ++hook_errors_;
      last_error_ = r.error;
    } else {
      v = r.first().to_number().value_or(0.0);
      if (!std::isfinite(v) || v < 0.0) {
        ++hook_errors_;
        ++sanitized_;
        last_error_ = std::string(name) + ": non-finite or negative load";
        v = 0.0;
      }
    }
    total_steps_ += in_.steps_used();
    ++calls_[h];
    if (hook_errors_ != errs) ++errors_[h];
    steps_[h].observe(static_cast<double>(in_.steps_used()));
    return v;
  }

  lua::Interp in_;
  lua::CompiledChunk chunk_[2];
  std::uint64_t hook_errors_ = 0;
  std::uint64_t sanitized_ = 0;
  std::uint64_t total_steps_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t calls_[2] = {};
  std::uint64_t errors_[2] = {};
  std::string last_error_;
  obs::Histogram steps_[2];
};

/// Drive `b` and `ref` through the same `n` random load-hook calls.
void drive(MantleBalancer& b, Reference& ref, Rng& rng, int n) {
  for (int k = 0; k < n; ++k) {
    double got = 0.0;
    double want = 0.0;
    if (rng.uniform(0, 2) == 0) {
      const PopSnapshot pop = random_pop(rng);
      got = b.metaload(pop);
      want = ref.metaload(pop);
    } else {
      const HeartbeatPayload hb = random_hb(rng);
      got = b.mdsload(hb);
      want = ref.mdsload(hb);
    }
    ASSERT_TRUE(same_bits(got, want)) << "call " << k << ": " << got
                                      << " vs " << want;
    ASSERT_EQ(b.hook_errors(), ref.hook_errors()) << "call " << k;
  }
}

struct Named {
  const char* name;
  MantlePolicy policy;
};

std::vector<Named> paper_policies() {
  return {{"original", scripts::original()},
          {"greedy_spill", scripts::greedy_spill()},
          {"greedy_spill_even", scripts::greedy_spill_even()},
          {"fill_and_spill", scripts::fill_and_spill()},
          {"adaptable", scripts::adaptable()}};
}

/// The hostile inputs trip the load clamp thousands of times; keep its
/// warnings out of the test log.
class MantleLowering : public ::testing::Test {
 protected:
  void SetUp() override { Log::set_level(LogLevel::Error); }
  void TearDown() override { Log::set_level(prev_); }

 private:
  LogLevel prev_ = Log::level();
};

TEST_F(MantleLowering, EveryPaperPolicyMatchesTheInterpreter) {
  Rng rng(2015);
  for (const Named& p : paper_policies()) {
    SCOPED_TRACE(p.name);
    obs::MetricsRegistry reg;
    MantleBalancer b(p.policy);
    b.attach_observability(&reg, nullptr);
    EXPECT_TRUE(b.is_lowered("mds_bal_metaload"));
    EXPECT_TRUE(b.is_lowered("mds_bal_mdsload"));
    // Only Table 1's `when` is one comparison; Listings 1-4 are chunks.
    EXPECT_EQ(b.is_lowered("mds_bal_when"), std::string(p.name) == "original");
    const MantleBalancer::PolicyCacheStats built = b.cache_stats();
    Reference ref(p.policy, MantleBalancer::Options{}.budget);
    drive(b, ref, rng, 600);
    EXPECT_GT(ref.hook_errors(), 0u);  // the inputs do reach the clamp
    ref.expect_matches(b, reg, built);
  }
}

TEST_F(MantleLowering, BudgetBelowTheStepCountFailsAsBefore) {
  // Table 1's mdsload costs 30 steps, its metaload 16: a budget of 29
  // keeps metaload lowered and sends mdsload to the interpreter, which
  // runs out of budget on every call exactly as it always has.
  const MantlePolicy p = scripts::original();
  MantleBalancer::Options opt;
  opt.budget = 29;
  obs::MetricsRegistry reg;
  MantleBalancer b(p, opt);
  b.attach_observability(&reg, nullptr);
  EXPECT_TRUE(b.is_lowered("mds_bal_metaload"));
  EXPECT_FALSE(b.is_lowered("mds_bal_mdsload"));
  const MantleBalancer::PolicyCacheStats built = b.cache_stats();
  Reference ref(p, opt.budget);
  Rng rng(29);
  drive(b, ref, rng, 200);
  HeartbeatPayload hb;
  hb.rank = 1;
  EXPECT_EQ(b.mdsload(hb), ref.mdsload(hb));
  EXPECT_EQ(b.last_error(),
            "mdsload:1: instruction budget exceeded (possible infinite loop)");
  ref.expect_matches(b, reg, built);
}

TEST_F(MantleLowering, InjectSwapsBetweenLoweredAndInterpreted) {
  MantlePolicy p = scripts::greedy_spill();
  obs::MetricsRegistry reg;
  MantleBalancer b(p);
  b.attach_observability(&reg, nullptr);
  Reference ref(p, MantleBalancer::Options{}.budget);
  Rng rng(4);
  MantleBalancer::PolicyCacheStats built = b.cache_stats();
  ASSERT_TRUE(b.is_lowered("mds_bal_mdsload"));
  drive(b, ref, rng, 100);

  const std::string lowered = p.mdsload;
  for (const std::string& src :
       {std::string("max(MDSs[i][\"all\"], MDSs[i][\"auth\"])"), lowered}) {
    ASSERT_EQ(b.inject("mds_bal_mdsload", src), "");
    EXPECT_EQ(b.is_lowered("mds_bal_mdsload"), src == lowered) << src;
    p.mdsload = src;
    ref.set_policy(p);
    built.recompiles += 1;
    built.parses += 1;
    drive(b, ref, rng, 100);
  }
  ref.expect_matches(b, reg, built);
}

TEST_F(MantleLowering, LoweredMdsloadStillBindsTheRowForLaterHooks) {
  // metaload reads MDSs[i], which is no metaload input, so it runs on the
  // interpreter and sees whatever the last mdsload call bound.
  MantlePolicy p;
  p.metaload = "MDSs[i][\"all\"]";
  p.mdsload = "2 * MDSs[i][\"all\"]";
  MantleBalancer b(p);
  EXPECT_FALSE(b.is_lowered("mds_bal_metaload"));
  EXPECT_TRUE(b.is_lowered("mds_bal_mdsload"));
  HeartbeatPayload hb;
  hb.rank = 2;
  hb.all_metaload = 7.0;
  EXPECT_EQ(b.mdsload(hb), 14.0);
  EXPECT_EQ(b.metaload(PopSnapshot{}), 7.0);
  hb.rank = 0;
  hb.all_metaload = 9.5;
  EXPECT_EQ(b.mdsload(hb), 19.0);
  EXPECT_EQ(b.metaload(PopSnapshot{}), 9.5);
  EXPECT_EQ(b.hook_errors(), 0u);
}

}  // namespace
}  // namespace mantle::core

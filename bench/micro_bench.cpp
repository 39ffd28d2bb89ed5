/// Microbenchmarks (google-benchmark): the cost of the moving parts —
/// luam policy evaluation (the paper argues LuaJIT is fast enough for a
/// 10 s balancing tick; we verify the same holds for luam), decay
/// counters, dirfrag math, namespace ops, the event engine and the
/// provenance input digest.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "balancers/builtin.hpp"
#include "cluster/cluster.hpp"
#include "harness.hpp"
#include "common/decay_counter.hpp"
#include "core/mantle.hpp"
#include "mds/namespace.hpp"
#include "sim/engine.hpp"

using namespace mantle;

namespace {

cluster::ClusterView sample_view(int n) {
  cluster::ClusterView v;
  v.whoami = 0;
  v.mdss.resize(static_cast<std::size_t>(n));
  v.loads.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& hb = v.mdss[static_cast<std::size_t>(i)];
    hb.rank = i;
    hb.auth_metaload = i == 0 ? 1000 : 10;
    hb.all_metaload = i == 0 ? 1200 : 10;
    hb.cpu_pct = 50;
    hb.queue_len = 3;
    hb.req_rate = 500;
    v.loads[static_cast<std::size_t>(i)] = hb.all_metaload;
    v.total_load += hb.all_metaload;
  }
  return v;
}

void BM_DecayCounterHit(benchmark::State& state) {
  const DecayRate rate(5.0);
  DecayCounter c;
  Time t = 0;
  for (auto _ : state) {
    c.hit(t, rate);
    t += 100;
  }
  benchmark::DoNotOptimize(c.raw());
}
BENCHMARK(BM_DecayCounterHit);

void BM_FragPick(benchmark::State& state) {
  mds::Namespace ns;
  const auto dir = ns.mkdir(ns.root(), "d", 0);
  for (int i = 0; i < 1000; ++i) ns.create(dir, "f" + std::to_string(i), 0);
  ns.split({dir, mds::frag_t()}, 3, 0);
  const mds::Dir* d = ns.dir(dir);
  std::uint32_t h = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&d->pick_frag(h));
    h += 0x9e3779b9u;
  }
}
BENCHMARK(BM_FragPick);

void BM_NamespaceCreate(benchmark::State& state) {
  mds::Namespace ns;
  const auto dir = ns.mkdir(ns.root(), "d", 0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ns.create(dir, "file" + std::to_string(i++), 0));
  }
}
BENCHMARK(BM_NamespaceCreate);

void BM_NamespaceResolveDeep(benchmark::State& state) {
  mds::Namespace ns;
  mds::InodeId cur = ns.root();
  std::string path;
  for (int i = 0; i < 8; ++i) {
    cur = ns.mkdir(cur, "level" + std::to_string(i), 0);
    path += "/level" + std::to_string(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ns.resolve(path));
  }
}
BENCHMARK(BM_NamespaceResolveDeep);

void BM_EngineScheduleDispatch(benchmark::State& state) {
  sim::Engine e;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) e.schedule_after(static_cast<Time>(i), [] {});
    e.run();
  }
}
BENCHMARK(BM_EngineScheduleDispatch);

void BM_NativeBalancerTickDecision(benchmark::State& state) {
  balancers::OriginalBalancer b;
  const auto view = sample_view(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    if (b.when(view)) benchmark::DoNotOptimize(b.where(view));
  }
}
BENCHMARK(BM_NativeBalancerTickDecision)->Arg(3)->Arg(16)->Arg(64);

void BM_MantleBalancerTickDecision(benchmark::State& state) {
  core::MantleBalancer b(core::scripts::original());
  const auto view = sample_view(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    if (b.when(view)) benchmark::DoNotOptimize(b.where(view));
  }
}
BENCHMARK(BM_MantleBalancerTickDecision)->Arg(3)->Arg(16)->Arg(64);

void BM_MantleMetaload(benchmark::State& state) {
  core::MantleBalancer b(core::scripts::original());
  cluster::PopSnapshot pop{10, 20, 5, 2, 1};
  for (auto _ : state) benchmark::DoNotOptimize(b.metaload(pop));
}
BENCHMARK(BM_MantleMetaload);

// --- Compile-once pipeline ---------------------------------------------
// The pre-PR interpreter re-lexed and re-parsed the hook source on every
// evaluation (and eval() additionally rebuilt the "return (<src>)" wrapper
// string per call). BM_LuaReparseEval keeps that path alive for comparison;
// BM_LuaCompiledEval is the same expression through a CompiledChunk.

constexpr const char* kMdsloadExpr =
    "0.8*MDSs[i][\"auth\"] + 0.2*MDSs[i][\"all\"]"
    " + MDSs[i][\"req\"] + 10*MDSs[i][\"q\"]";

lua::Interp& mdsload_env() {
  static lua::Interp in = [] {
    lua::Interp i;
    i.run("MDSs = {}; MDSs[1] = {auth=1000, all=1200, req=500, q=3}; i = 1");
    return i;
  }();
  return in;
}

void BM_LuaReparseEval(benchmark::State& state) {
  lua::Interp& in = mdsload_env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(in.eval(kMdsloadExpr, "mdsload"));
  }
}
BENCHMARK(BM_LuaReparseEval);

void BM_LuaCompiledEval(benchmark::State& state) {
  lua::Interp& in = mdsload_env();
  const lua::CompiledChunk cc = lua::compile_expr(kMdsloadExpr, "mdsload");
  for (auto _ : state) {
    benchmark::DoNotOptimize(in.run(cc));
  }
}
BENCHMARK(BM_LuaCompiledEval);

void BM_LuaFib(benchmark::State& state) {
  lua::Interp in;
  in.run("function fib(n) if n<2 then return n end return fib(n-1)+fib(n-2) end");
  const lua::Value fib = in.get_global("fib");
  for (auto _ : state) {
    benchmark::DoNotOptimize(in.call(fib, {lua::Value(15.0)}));
  }
}
BENCHMARK(BM_LuaFib);

// The provenance input digest a 512-rank tick takes over its view: its
// cost depends on the data, since a zero byte folds into the multiply of
// its run. Arg 0 is an idle cluster (every digested value zero, every
// rank alive), arg 1 a dense one (no zero byte in any value).
void BM_InputDigest(benchmark::State& state) {
  constexpr std::size_t kRanks = 512;
  const bool dense = state.range(0) != 0;
  cluster::ClusterView v;
  v.now = 100 * kSec;
  v.mdss.resize(kRanks);
  v.loads.assign(kRanks, 0.0);
  v.alive.assign(kRanks, 1);
  Rng rng(7);
  const auto value = [&] { return dense ? rng.uniform_real(1.0, 2.0) : 0.0; };
  for (std::size_t i = 0; i < kRanks; ++i) {
    cluster::HeartbeatPayload& hb = v.mdss[i];
    hb.rank = static_cast<int>(i);
    hb.auth_metaload = value();
    hb.all_metaload = value();
    hb.cpu_pct = value();
    hb.mem_pct = value();
    hb.queue_len = value();
    hb.req_rate = value();
    v.loads[i] = value();
    v.total_load += v.loads[i];
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(cluster::input_digest(v, 0.01));
}
BENCHMARK(BM_InputDigest)->Arg(0)->Arg(1);

void BM_SelectorBestSelection(benchmark::State& state) {
  std::vector<cluster::ExportCandidate> cands;
  for (int i = 0; i < 64; ++i)
    cands.push_back({{static_cast<mds::InodeId>(i + 2), {}},
                     100.0 / (i + 1), 10});
  const std::vector<std::string> names{"big_first", "small_first", "big_small", "half"};
  for (auto _ : state)
    benchmark::DoNotOptimize(cluster::best_selection(names, cands, 150.0));
}
BENCHMARK(BM_SelectorBestSelection);

// --- Per-hook benchmarks over the paper's four policies ------------------
// One benchmark per (hook, policy), with when/where additionally swept
// over 2/5/16-rank views. Names are stable ("BM_MantleHook/<hook>/<policy>
// [/<ranks>]"), so BENCH_micro.json files from different commits can be
// compared entry by entry.

struct NamedPolicy {
  const char* name;
  core::MantlePolicy policy;
};

const std::vector<NamedPolicy>& paper_policies() {
  static const std::vector<NamedPolicy> ps = {
      {"original", core::scripts::original()},
      {"greedy_spill", core::scripts::greedy_spill()},
      {"greedy_spill_even", core::scripts::greedy_spill_even()},
      {"fill_and_spill", core::scripts::fill_and_spill()},
  };
  return ps;
}

void register_hook_benchmarks() {
  static const int kRankCounts[] = {2, 5, 16};
  for (const NamedPolicy& np : paper_policies()) {
    const std::string prefix = std::string("BM_MantleHook/");
    benchmark::RegisterBenchmark(
        (prefix + "metaload/" + np.name).c_str(),
        [&np](benchmark::State& st) {
          core::MantleBalancer b(np.policy);
          const cluster::PopSnapshot pop{10, 20, 5, 2, 1};
          for (auto _ : st) benchmark::DoNotOptimize(b.metaload(pop));
        });
    benchmark::RegisterBenchmark(
        (prefix + "mdsload/" + np.name).c_str(),
        [&np](benchmark::State& st) {
          core::MantleBalancer b(np.policy);
          const auto view = sample_view(2);
          for (auto _ : st) benchmark::DoNotOptimize(b.mdsload(view.mdss[1]));
        });
    benchmark::RegisterBenchmark(
        (prefix + "howmuch/" + np.name).c_str(),
        [&np](benchmark::State& st) {
          core::MantleBalancer b(np.policy);
          for (auto _ : st) benchmark::DoNotOptimize(b.howmuch());
        });
    for (const int n : kRankCounts) {
      benchmark::RegisterBenchmark(
          (prefix + "when/" + np.name + "/" + std::to_string(n)).c_str(),
          [&np, n](benchmark::State& st) {
            core::MantleBalancer b(np.policy);
            const auto view = sample_view(n);
            for (auto _ : st) benchmark::DoNotOptimize(b.when(view));
          });
      benchmark::RegisterBenchmark(
          (prefix + "where/" + np.name + "/" + std::to_string(n)).c_str(),
          [&np, n](benchmark::State& st) {
            core::MantleBalancer b(np.policy);
            const auto view = sample_view(n);
            b.when(view);  // combined policies fill targets here
            for (auto _ : st) benchmark::DoNotOptimize(b.where(view));
          });
    }
  }
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): understands --quick (short
// measurement window for CI) and defaults JSON output to BENCH_micro.json
// so every run leaves a comparable artifact.
int main(int argc, char** argv) {
  std::vector<std::string> args_storage;
  bool has_out = false;
  bool quick = false;
  args_storage.reserve(static_cast<std::size_t>(argc) + 3);
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
      continue;
    }
    if (a.rfind("--benchmark_out=", 0) == 0) has_out = true;
    args_storage.push_back(a);
  }
  if (!has_out) {
    args_storage.push_back("--benchmark_out=BENCH_micro.json");
    args_storage.push_back("--benchmark_out_format=json");
  }
  // Note: this benchmark version wants a plain double here, not "0.02s".
  if (quick) args_storage.push_back("--benchmark_min_time=0.02");

  std::vector<char*> args;
  args.reserve(args_storage.size());
  for (std::string& a : args_storage) args.push_back(a.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  register_hook_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  mantle::bench::print_phase_profile();
  return 0;
}

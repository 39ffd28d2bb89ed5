#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file fuzz.hpp
/// Deterministic hook-input fuzzer: throws hostile balancer inputs at the
/// paper's policies — both the Lua scripts running through MantleBalancer
/// and their native C++ twins — plus the luam stdlib surface those hooks
/// lean on, and checks the safety invariants the rest of the system
/// relies on:
///
///   - no C++ exception ever escapes a hook evaluation or a luam run();
///   - sanitized outputs: Mantle loads/targets come back finite and
///     non-negative no matter what garbage (NaN/Inf/negative/huge loads,
///     empty or oversized views, out-of-range whoami) went in;
///   - budget-starved runs still terminate and report a budget error;
///   - determinism: the same inputs through two fresh instances produce
///     byte-identical decisions and error messages.
///
/// Three levels, round-robined per iteration:
///   view   — hostile ClusterView/HeartbeatPayload through Balancer::when/
///            where/mdsload (Lua policies get non-finite values; native
///            twins get extreme-but-finite ones, since heartbeats in the
///            simulator are finite by construction);
///   env    — hostile Lua environments (dropped rank rows, fractional and
///            string keys, cyclic tables, rows that are not tables,
///            poisoned `targets`/`whoami`/`total`) against the raw hook
///            sources in a bare interpreter;
///   stdlib — hostile arguments to the library functions policies call
///            (string.format/sub/rep, math.fmod, table.insert/remove,
///            select/unpack/tonumber).
///
/// Everything is driven by one mantle::Rng: the same seed reproduces the
/// same cases, the same failures and byte-identical reproducer corpora.
/// Failing cases are shrunk to minimal reproducers before being reported.

namespace mantle::safety {

struct FuzzConfig {
  std::uint64_t seed = 1;
  std::uint64_t iters = 10000;
};

/// One invariant violation, shrunk to a minimal reproducer.
struct FuzzFailure {
  std::uint64_t iteration = 0;
  std::string level;       ///< "view" | "env" | "stdlib"
  std::string subject;     ///< policy/balancer/script under test
  std::string invariant;   ///< which invariant broke
  std::string reproducer;  ///< canonical one-line minimal case
  std::string detail;      ///< observed value or error text
};

struct FuzzResult {
  std::uint64_t iterations = 0;  ///< cases actually executed
  std::uint64_t checks = 0;      ///< invariant evaluations performed
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }

  /// The reproducer corpus: one canonical line per failure, in discovery
  /// order. Byte-identical across runs with the same config (the CI
  /// artifact on fuzz failures, and what the determinism test compares).
  std::string corpus() const;

  /// Deterministic JSON (name-ordered keys).
  std::string to_json() const;
};

/// Run the fuzzer. It stops early after 16 distinct failures: each is
/// shrunk, which costs re-executions, and a broken build would otherwise
/// take forever.
FuzzResult run_fuzz(const FuzzConfig& cfg = {});

}  // namespace mantle::safety

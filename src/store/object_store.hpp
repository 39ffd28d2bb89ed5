#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

/// \file object_store.hpp
/// RADOS-stand-in: a reliable, flat object store with a latency model.
/// CephFS journals MDS events to RADOS and stores directory objects there
/// (so a namespace larger than MDS memory can swap dirfrags in and out).
/// The simulator needs the same two properties the paper's results depend
/// on: (1) journaling migrations costs time, (2) fetching/storing dirfrags
/// costs time and bumps the FETCH/STORE load counters. Operations are
/// synchronous and return the simulated latency to charge the caller.

namespace mantle::store {

using mantle::Rng;
using mantle::Time;

/// Latency model for object operations: fixed base cost plus a per-byte
/// cost, with +/- kJitterFrac uniform jitter when an rng is given. All
/// costs in microseconds.
struct LatencyModel {
  static constexpr Time kReadBase = 150;     // ~150us: journal/omap read on SSD
  static constexpr Time kWriteBase = 400;    // ~400us: replicated write ack
  static constexpr double kPerByte = 0.002;  // 2ns/byte ~ 500 MB/s effective
  static constexpr double kJitterFrac = 0.10;

  static Time read_cost(std::size_t bytes, Rng* rng);
  static Time write_cost(std::size_t bytes, Rng* rng);
};

struct Object {
  std::string data;
  std::map<std::string, std::string> omap;  // dirfrag dentries live here
};

/// Cumulative operation counters (per store).
struct StoreStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t omap_reads = 0;
  std::uint64_t omap_writes = 0;
  std::uint64_t deletes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t faults_injected = 0;  // ops failed by the fault hook
};

/// Operation classes a fault hook can discriminate on.
enum class StoreOp { Read, Write, OmapRead, OmapWrite, Delete };

/// Result of a store operation: whether it succeeded and how long it took
/// in simulated time. Failures happen for reads of missing objects and for
/// any op an installed fault hook chooses to fail.
struct OpResult {
  bool ok = true;
  Time latency = 0;
};

class ObjectStore {
 public:
  /// rng may be null for a deterministic, jitter-free store.
  explicit ObjectStore(Rng* rng = nullptr) : rng_(rng) {}

  OpResult write_full(const std::string& oid, std::string data);
  OpResult append(const std::string& oid, const std::string& data);

  /// Read full object data into `out`.
  OpResult read(const std::string& oid, std::string* out);

  OpResult omap_set(const std::string& oid, const std::string& key,
                    std::string value);
  OpResult omap_remove(const std::string& oid, const std::string& key);

  /// Read a single omap value; !ok if the object or key is missing.
  OpResult omap_get(const std::string& oid, const std::string& key,
                    std::string* out);

  /// Read every omap entry (a dirfrag fetch / readdir backfill).
  OpResult omap_list(const std::string& oid,
                     std::vector<std::pair<std::string, std::string>>* out);

  OpResult remove(const std::string& oid);

  bool exists(const std::string& oid) const { return objects_.count(oid) != 0; }
  std::size_t object_count() const { return objects_.size(); }
  const StoreStats& stats() const { return stats_; }

  /// Fault injection: when set, the hook is consulted before every
  /// operation; returning true fails that op (ok=false, mutation not
  /// applied) after charging its normal latency — a transient RADOS op
  /// failure. Counted in stats().faults_injected.
  using FaultHook = std::function<bool(StoreOp, const std::string& oid)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  bool faulted(StoreOp op, const std::string& oid) {
    if (fault_hook_ && fault_hook_(op, oid)) {
      ++stats_.faults_injected;
      return true;
    }
    return false;
  }

  Rng* rng_;
  std::map<std::string, Object> objects_;
  StoreStats stats_;
  FaultHook fault_hook_;
};

/// Per-MDS journal on top of the object store: an append-only event log
/// with sequence numbers and trimming, as the MDS journal in RADOS.
class Journal {
 public:
  Journal(ObjectStore& store, std::string oid)
      : store_(store), oid_(std::move(oid)) {}

  /// Append an event; returns the op result plus assigns a sequence number.
  OpResult append(const std::string& event, std::uint64_t* seq_out = nullptr);

  /// Discard entries with seq < upto (cheap metadata-only op).
  void trim(std::uint64_t upto);

  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t trimmed_to() const { return trimmed_to_; }
  std::size_t live_entries() const { return entries_.size(); }

  /// Events still in the journal, oldest first.
  std::vector<std::pair<std::uint64_t, std::string>> entries() const;

 private:
  ObjectStore& store_;
  std::string oid_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t trimmed_to_ = 0;
  std::map<std::uint64_t, std::string> entries_;
};

}  // namespace mantle::store

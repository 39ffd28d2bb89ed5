#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

/// \file object_store.hpp
/// RADOS stand-ins for the two things the simulator keeps durably: a flat
/// key-value ObjectStore, where a MantleBalancer can keep its WRstate/
/// RDstate (the paper's §3.1 future work), and a per-MDS Journal, whose
/// live length sets the replay time of a takeover or restart. Storage
/// costs are charged through the service model and the FETCH/STORE load
/// counters, not here.

namespace mantle::store {

class ObjectStore {
 public:
  void write_full(const std::string& oid, std::string data) {
    objects_[oid] = std::move(data);
  }

  /// Read full object data into `out`; false (out untouched) if missing.
  bool read(const std::string& oid, std::string* out) const;

 private:
  std::map<std::string, std::string> objects_;
};

/// Per-MDS journal: an append-only event log with sequence numbers and
/// trimming, as the MDS journal in RADOS.
class Journal {
 public:
  /// Append an event; returns its sequence number.
  std::uint64_t append(std::string event);

  /// Discard entries with seq < upto (cheap metadata-only op).
  void trim(std::uint64_t upto);

  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t trimmed_to() const { return trimmed_to_; }
  std::size_t live_entries() const { return entries_.size(); }

  /// Events still in the journal, oldest first.
  std::vector<std::pair<std::uint64_t, std::string>> entries() const;

 private:
  std::uint64_t next_seq_ = 0;
  std::uint64_t trimmed_to_ = 0;
  std::map<std::uint64_t, std::string> entries_;
};

}  // namespace mantle::store

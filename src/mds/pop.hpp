#pragma once

#include <array>

#include "common/decay_counter.hpp"

/// \file pop.hpp
/// Popularity vectors: the per-dirfrag/per-directory metadata counters the
/// paper's balancers consume. Five op classes, matching the Mantle
/// environment (Table 2): inode reads, inode writes, readdirs, dirfrag
/// fetches, dirfrag stores. The default CephFS metadata load is
/// IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE over these decayed counters.

namespace mantle::mds {

enum class MetaOp : int {
  IRD = 0,      // inode read (lookup/getattr/open-for-read)
  IWR = 1,      // inode write (create/setattr/unlink)
  READDIR = 2,  // directory listing
  FETCH = 3,    // dirfrag fetched from the object store
  STORE = 4,    // dirfrag flushed to the object store
};
inline constexpr int kNumMetaOps = 5;

class PopVector {
 public:
  void hit(MetaOp op, Time now, const DecayRate& rate, double delta = 1.0) {
    counters_[static_cast<int>(op)].hit(now, rate, delta);
  }

  double get(MetaOp op, Time now, const DecayRate& rate) const {
    return counters_[static_cast<int>(op)].get(now, rate);
  }

  /// Scale every counter at `now` (decays first; see DecayCounter::scale).
  void scale(Time now, const DecayRate& rate, double f) {
    for (auto& c : counters_) c.scale(now, rate, f);
  }

  /// Apply pending decay on all counters up to `now` so that scale() and
  /// merge() operate on values from the same instant.
  void sync(Time now, const DecayRate& rate) const {
    for (const auto& c : counters_) c.get(now, rate);
  }

  /// Fold another vector in; both must have been decayed to the same time
  /// (call get() on each counter first if unsure).
  void merge(const PopVector& other) {
    for (int i = 0; i < kNumMetaOps; ++i) counters_[i].merge(other.counters_[i]);
  }

  void reset(Time now) {
    for (auto& c : counters_) c.reset(now);
  }

 private:
  std::array<DecayCounter, kNumMetaOps> counters_;
};

}  // namespace mantle::mds

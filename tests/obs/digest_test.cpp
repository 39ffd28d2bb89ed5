#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "obs/provenance.hpp"

/// The provenance input digest against its byte-serial reference. The
/// digest folds each run of zero bytes into one multiply by a power of the
/// FNV prime, and a balancer tick takes it in place over its view's
/// HeartbeatPayload rows; the oracle is the byte-serial FNV-1a over the
/// record's tables, as the digest was first written. Random records at 1,
/// 5, 64, 65 and 512 ranks mix zero runs, -0.0, subnormals, infinities,
/// NaNs with payload bits and dense doubles. Above 64 ranks a tick builds
/// no per-rank tables at all, and its digest is still the full table's.

namespace mantle {
namespace {

using cluster::ClusterView;
using cluster::HeartbeatPayload;
using obs::DecisionRecord;
using obs::HookInputRow;

struct SerialFnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void f64(double x) { bytes(&x, sizeof(x)); }
  void u(std::uint64_t x) { bytes(&x, sizeof(x)); }
};

std::string serial_digest(const DecisionRecord& rec) {
  SerialFnv f;
  f.u(static_cast<std::uint64_t>(rec.at));
  f.u(static_cast<std::uint64_t>(static_cast<std::int64_t>(rec.rank)));
  f.f64(rec.min_load);
  f.f64(rec.total_load);
  f.u(rec.loads.size());
  for (const double x : rec.loads) f.f64(x);
  for (const std::uint8_t a : rec.alive) f.u(a);
  for (const HookInputRow& r : rec.mdss) {
    f.f64(r.auth_metaload);
    f.f64(r.all_metaload);
    f.f64(r.cpu_pct);
    f.f64(r.mem_pct);
    f.f64(r.queue_len);
    f.f64(r.req_rate);
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, f.h);
  return buf;
}

/// One input value. `zero_share` of them (in 1/8) are +0.0, so rows hold
/// zero runs of every length; the rest cover the other byte patterns.
double draw(Rng& rng, std::uint64_t zero_share) {
  if (rng.uniform(0, 7) < zero_share) return 0.0;
  const std::uint64_t sign = rng.uniform(0, 1) << 63;
  switch (rng.uniform(0, 6)) {
    case 0: return -0.0;
    case 1:  // subnormal
      return std::bit_cast<double>(sign | rng.uniform(1, (1ULL << 52) - 1));
    case 2: return sign ? -std::numeric_limits<double>::infinity()
                        : std::numeric_limits<double>::infinity();
    case 3:  // NaN with payload bits, quiet or signalling
      return std::bit_cast<double>(sign | 0x7ff0000000000000ULL |
                                   rng.uniform(1, (1ULL << 52) - 1));
    case 4:  // small integers and halves: zero low bytes
      return static_cast<double>(rng.uniform(0, 4096)) / 2.0;
    case 5: return rng.uniform_real(0.0, 100.0);
    default:  // any finite bit pattern
      return std::bit_cast<double>(sign |
                                   rng.uniform(0, 0x7feULL) << 52 |
                                   rng.uniform(0, (1ULL << 52) - 1));
  }
}

DecisionRecord random_record(Rng& rng, std::size_t ranks,
                             std::uint64_t zero_share) {
  DecisionRecord rec;
  rec.at = rng.uniform(0, std::uint64_t{1} << 40);
  rec.rank = static_cast<int>(rng.uniform(0, ranks - 1));
  rec.min_load = draw(rng, zero_share);
  rec.total_load = draw(rng, zero_share);
  for (std::size_t i = 0; i < ranks; ++i) {
    rec.loads.push_back(draw(rng, zero_share));
    rec.alive.push_back(rng.uniform(0, 7) == 0 ? 0 : 1);
    rec.mdss.push_back({draw(rng, zero_share), draw(rng, zero_share),
                        draw(rng, zero_share), draw(rng, zero_share),
                        draw(rng, zero_share), draw(rng, zero_share)});
  }
  return rec;
}

/// The view a tick would hold for `rec`'s inputs, with every payload field
/// the digest must not read set to something else.
ClusterView view_of(const DecisionRecord& rec, Rng& rng) {
  ClusterView v;
  v.now = rec.at;
  v.whoami = rec.rank;
  v.loads = rec.loads;
  v.alive = rec.alive;
  v.total_load = rec.total_load;
  for (const HookInputRow& r : rec.mdss) {
    HeartbeatPayload h;
    h.rank = static_cast<int>(rng.uniform(0, 1000));
    h.auth_metaload = r.auth_metaload;
    h.all_metaload = r.all_metaload;
    h.cpu_pct = r.cpu_pct;
    h.mem_pct = r.mem_pct;
    h.queue_len = r.queue_len;
    h.req_rate = r.req_rate;
    h.sent_at = rng.next_u64();
    h.epoch = rng.next_u64();
    v.mdss.push_back(h);
  }
  return v;
}

TEST(ProvenanceDigest, FoldedMatchesByteSerialOracle) {
  Rng rng(2026);
  for (const std::size_t ranks : {1u, 5u, 64u, 65u, 512u}) {
    // From idle (every value zero) to dense (none).
    for (std::uint64_t zero_share = 0; zero_share <= 8; ++zero_share) {
      for (int i = 0; i < 6; ++i) {
        const DecisionRecord rec = random_record(rng, ranks, zero_share);
        const std::string want = serial_digest(rec);
        ASSERT_EQ(obs::input_digest(rec), want)
            << ranks << " ranks, zero share " << zero_share << "/8";
        const ClusterView view = view_of(rec, rng);
        ASSERT_EQ(cluster::input_digest(view, rec.min_load), want)
            << ranks << " ranks, zero share " << zero_share << "/8";
      }
    }
  }
}

TEST(ProvenanceDigest, EmptyTablesMatchOracle) {
  DecisionRecord rec;
  rec.at = 7;
  rec.rank = 3;
  EXPECT_EQ(obs::input_digest(rec), serial_digest(rec));
  EXPECT_EQ(cluster::input_digest(ClusterView{3, 7, {}, {}, 0.0, {}}, 0.0),
            serial_digest(rec));
}

/// A policy that keeps every view its `when` hook is shown and never
/// migrates, so a tick's record can be checked against its full inputs.
class ViewRecorder : public cluster::Balancer {
 public:
  explicit ViewRecorder(std::vector<ClusterView>* views) : views_(views) {}
  std::string name() const override { return "view-recorder"; }
  double metaload(const cluster::PopSnapshot& pop) const override {
    return pop.ird + pop.iwr;
  }
  double mdsload(const HeartbeatPayload& hb) const override {
    return 1.0 + hb.all_metaload;
  }
  bool when(const ClusterView& view) override {
    views_->push_back(view);
    return false;
  }
  std::vector<double> where(const ClusterView&) override { return {}; }
  std::vector<std::string> howmuch() const override { return {}; }

 private:
  std::vector<ClusterView>* views_;
};

/// A `ranks`-rank cluster's first seconds: its records, read in place
/// (a copy of a record would not keep its tables' capacity), and the view
/// each one's tick showed its policy.
struct Ticks {
  std::vector<ClusterView> views;
  sim::Engine engine;
  cluster::MdsCluster cluster;

  explicit Ticks(int ranks)
      : cluster(engine, [ranks] {
          cluster::ClusterConfig cfg;
          cfg.num_mds = ranks;
          cfg.bal_interval = kSec;
          return cfg;
        }()) {
    cluster.set_balancer_all(
        [this](int) { return std::make_unique<ViewRecorder>(&views); });
    cluster.start();
    engine.run_until(3 * kSec);
  }
  const std::vector<DecisionRecord>& records() const {
    return cluster.provenance().records();
  }
  double min_load() const { return cluster.config().bal_min_load; }
};

DecisionRecord full_record(const ClusterView& v, double min_load) {
  DecisionRecord rec;
  rec.at = v.now;
  rec.rank = v.whoami;
  rec.min_load = min_load;
  rec.total_load = v.total_load;
  rec.loads = v.loads;
  rec.alive = v.alive;
  for (const HeartbeatPayload& h : v.mdss)
    rec.mdss.push_back({h.auth_metaload, h.all_metaload, h.cpu_pct,
                        h.mem_pct, h.queue_len, h.req_rate});
  return rec;
}

TEST(ProvenanceDigest, TickAbove64RanksBuildsNoTables) {
  const Ticks t(65);
  const std::vector<DecisionRecord>& records = t.records();
  ASSERT_GT(records.size(), 65u);
  ASSERT_EQ(records.size(), t.views.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const DecisionRecord& rec = records[i];
    EXPECT_TRUE(rec.truncated);
    EXPECT_EQ(rec.mdss.capacity(), 0u);
    EXPECT_EQ(rec.loads.capacity(), 0u);
    EXPECT_EQ(rec.alive.capacity(), 0u);
    // The digest is the untruncated record's.
    const DecisionRecord full = full_record(t.views[i], t.min_load());
    ASSERT_EQ(full.mdss.size(), 65u);
    EXPECT_EQ(rec.digest, serial_digest(full)) << "record " << i;
    EXPECT_EQ(rec.digest, obs::input_digest(full)) << "record " << i;
  }
}

TEST(ProvenanceDigest, TickAt64RanksKeepsTables) {
  const Ticks t(64);
  const std::vector<DecisionRecord>& records = t.records();
  ASSERT_GT(records.size(), 64u);
  ASSERT_EQ(records.size(), t.views.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const DecisionRecord& rec = records[i];
    EXPECT_FALSE(rec.truncated);
    ASSERT_EQ(rec.mdss.size(), 64u);
    const DecisionRecord full = full_record(t.views[i], t.min_load());
    EXPECT_EQ(rec.loads, full.loads);
    EXPECT_EQ(rec.alive, full.alive);
    EXPECT_EQ(rec.digest, serial_digest(rec)) << "record " << i;
    EXPECT_EQ(rec.digest, serial_digest(full)) << "record " << i;
  }
}

}  // namespace
}  // namespace mantle

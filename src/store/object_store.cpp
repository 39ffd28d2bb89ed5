#include "store/object_store.hpp"

namespace mantle::store {

namespace {
Time apply_jitter(Time base, Rng* rng) {
  if (rng == nullptr) return base;
  const double f =
      1.0 + LatencyModel::kJitterFrac * (2.0 * rng->next_double() - 1.0);
  return static_cast<Time>(static_cast<double>(base) * f);
}
}  // namespace

Time LatencyModel::read_cost(std::size_t bytes, Rng* rng) {
  const Time t = kReadBase + static_cast<Time>(kPerByte * static_cast<double>(bytes));
  return apply_jitter(t, rng);
}

Time LatencyModel::write_cost(std::size_t bytes, Rng* rng) {
  const Time t = kWriteBase + static_cast<Time>(kPerByte * static_cast<double>(bytes));
  return apply_jitter(t, rng);
}

OpResult ObjectStore::write_full(const std::string& oid, std::string data) {
  ++stats_.writes;
  const Time lat = LatencyModel::write_cost(data.size(), rng_);
  if (faulted(StoreOp::Write, oid)) return {false, lat};
  stats_.bytes_written += data.size();
  objects_[oid].data = std::move(data);
  return {true, lat};
}

OpResult ObjectStore::append(const std::string& oid, const std::string& data) {
  ++stats_.writes;
  const Time lat = LatencyModel::write_cost(data.size(), rng_);
  if (faulted(StoreOp::Write, oid)) return {false, lat};
  stats_.bytes_written += data.size();
  objects_[oid].data += data;
  return {true, lat};
}

OpResult ObjectStore::read(const std::string& oid, std::string* out) {
  ++stats_.reads;
  if (faulted(StoreOp::Read, oid)) return {false, LatencyModel::read_cost(0, rng_)};
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return {false, LatencyModel::read_cost(0, rng_)};
  stats_.bytes_read += it->second.data.size();
  if (out != nullptr) *out = it->second.data;
  return {true, LatencyModel::read_cost(it->second.data.size(), rng_)};
}

OpResult ObjectStore::omap_set(const std::string& oid, const std::string& key,
                               std::string value) {
  ++stats_.omap_writes;
  const Time lat = LatencyModel::write_cost(key.size() + value.size(), rng_);
  if (faulted(StoreOp::OmapWrite, oid)) return {false, lat};
  stats_.bytes_written += key.size() + value.size();
  objects_[oid].omap[key] = std::move(value);
  return {true, lat};
}

OpResult ObjectStore::omap_remove(const std::string& oid, const std::string& key) {
  ++stats_.omap_writes;
  const Time lat = LatencyModel::write_cost(key.size(), rng_);
  if (faulted(StoreOp::OmapWrite, oid)) return {false, lat};
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return {false, lat};
  it->second.omap.erase(key);
  return {true, lat};
}

OpResult ObjectStore::omap_get(const std::string& oid, const std::string& key,
                               std::string* out) {
  ++stats_.omap_reads;
  if (faulted(StoreOp::OmapRead, oid)) return {false, LatencyModel::read_cost(0, rng_)};
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return {false, LatencyModel::read_cost(0, rng_)};
  const auto kit = it->second.omap.find(key);
  if (kit == it->second.omap.end()) return {false, LatencyModel::read_cost(key.size(), rng_)};
  stats_.bytes_read += kit->second.size();
  if (out != nullptr) *out = kit->second;
  return {true, LatencyModel::read_cost(kit->second.size(), rng_)};
}

OpResult ObjectStore::omap_list(
    const std::string& oid,
    std::vector<std::pair<std::string, std::string>>* out) {
  ++stats_.omap_reads;
  if (faulted(StoreOp::OmapRead, oid)) return {false, LatencyModel::read_cost(0, rng_)};
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return {false, LatencyModel::read_cost(0, rng_)};
  std::size_t bytes = 0;
  if (out != nullptr) out->clear();
  for (const auto& [k, v] : it->second.omap) {
    bytes += k.size() + v.size();
    if (out != nullptr) out->emplace_back(k, v);
  }
  stats_.bytes_read += bytes;
  return {true, LatencyModel::read_cost(bytes, rng_)};
}

OpResult ObjectStore::remove(const std::string& oid) {
  ++stats_.deletes;
  const Time lat = LatencyModel::write_cost(0, rng_);
  if (faulted(StoreOp::Delete, oid)) return {false, lat};
  return {objects_.erase(oid) != 0, lat};
}

OpResult Journal::append(const std::string& event, std::uint64_t* seq_out) {
  const std::uint64_t seq = next_seq_++;
  entries_[seq] = event;
  if (seq_out != nullptr) *seq_out = seq;
  return store_.append(oid_, event);
}

void Journal::trim(std::uint64_t upto) {
  entries_.erase(entries_.begin(), entries_.lower_bound(upto));
  if (upto > trimmed_to_) trimmed_to_ = upto;
}

std::vector<std::pair<std::uint64_t, std::string>> Journal::entries() const {
  return {entries_.begin(), entries_.end()};
}

}  // namespace mantle::store

#include "store/object_store.hpp"

namespace mantle::store {

bool ObjectStore::read(const std::string& oid, std::string* out) const {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

std::uint64_t Journal::append(std::string event) {
  const std::uint64_t seq = next_seq_++;
  entries_[seq] = std::move(event);
  return seq;
}

void Journal::trim(std::uint64_t upto) {
  entries_.erase(entries_.begin(), entries_.lower_bound(upto));
  if (upto > trimmed_to_) trimmed_to_ = upto;
}

std::vector<std::pair<std::uint64_t, std::string>> Journal::entries() const {
  return {entries_.begin(), entries_.end()};
}

}  // namespace mantle::store

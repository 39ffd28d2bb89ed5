#include "mds/namespace.hpp"

#include <algorithm>

namespace mantle::mds {

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : path) {
    if (c == '/') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

const DirFrag& Dir::pick_frag(std::uint32_t hash) const {
  // Leaves partition the hash space; the covering leaf is the greatest one
  // whose value does not exceed the hash.
  auto it = frags.upper_bound(frag_t(hash, 32));
  if (it != frags.begin()) --it;
  return it->second;
}

DirFrag& Dir::pick_frag(std::uint32_t hash) {
  auto it = frags.upper_bound(frag_t(hash, 32));
  if (it != frags.begin()) --it;
  return it->second;
}

Namespace::Namespace(DecayRate rate) : rate_(rate) {
  inodes_.emplace_back();  // id 0 is kNoInode and is never handed out
  dirs_.emplace_back();
  inodes_.push_back({kRootInode, kNoInode, "", true, 0});
  dirs_.push_back(std::make_unique<Dir>());
  dirs_.back()->ino = kRootInode;
  dirs_.back()->frags[frag_t()];  // one whole-directory frag
  live_inodes_ = live_dirs_ = 1;
}

InodeId Namespace::add(InodeId parent, const std::string& name, bool is_dir,
                       Time now) {
  Dir* pd = dir(parent);
  if (pd == nullptr || name.empty()) return kNoInode;
  DirFrag& f = pd->pick_frag(hash_dentry_name(name));
  if (f.dentries.contains(name)) return kNoInode;

  const InodeId ino = inodes_.size();
  inodes_.push_back({ino, parent, name, is_dir, now});
  ++live_inodes_;
  std::unique_ptr<Dir>& d = dirs_.emplace_back();
  if (is_dir) {
    d = std::make_unique<Dir>();
    d->ino = ino;
    // A new directory starts on its parent's authority.
    d->frags[frag_t()].auth = f.auth;
    ++live_dirs_;
    f.subdirs.emplace(name, ino);
  }
  f.dentries.emplace(name, ino);
  f.dirty = true;
  return ino;
}

InodeId Namespace::mkdir(InodeId parent, const std::string& name, Time now) {
  return add(parent, name, true, now);
}

InodeId Namespace::create(InodeId parent, const std::string& name, Time now) {
  return add(parent, name, false, now);
}

bool Namespace::remove(InodeId parent, const std::string& name) {
  Dir* pd = dir(parent);
  if (pd == nullptr) return false;
  DirFrag& f = pd->pick_frag(hash_dentry_name(name));
  const auto it = f.dentries.find(name);
  if (it == f.dentries.end()) return false;
  const InodeId ino = it->second;
  if (dirs_[ino] != nullptr) {
    // Only empty directories are removable.
    if (dirs_[ino]->num_entries() != 0) return false;
    f.subdirs.erase(name);
    dirs_[ino].reset();
    --live_dirs_;
  }
  f.dentries.erase(it);
  f.dirty = true;
  inodes_[ino] = Inode{};  // the id stays retired; its slot stays, empty
  --live_inodes_;
  return true;
}

bool Namespace::rename(InodeId src_dir, const std::string& src_name,
                       InodeId dst_dir, const std::string& dst_name) {
  Dir* sd = dir(src_dir);
  Dir* dd = dir(dst_dir);
  if (sd == nullptr || dd == nullptr || dst_name.empty()) return false;
  DirFrag& sf = sd->pick_frag(hash_dentry_name(src_name));
  const auto it = sf.dentries.find(src_name);
  if (it == sf.dentries.end()) return false;
  const InodeId moving = it->second;
  DirFrag& df = dd->pick_frag(hash_dentry_name(dst_name));
  if (df.dentries.contains(dst_name)) return false;

  Inode& node = inodes_[moving];
  if (node.is_dir) {
    // Reject cycles: the destination must not live inside the subtree
    // being moved (includes renaming a directory into itself).
    for (const Inode* p = inode(dst_dir); p != nullptr; p = inode(p->parent))
      if (p->id == moving) return false;
  }

  if (node.is_dir) {
    sf.subdirs.erase(src_name);
    df.subdirs[dst_name] = moving;
  }
  sf.dentries.erase(it);
  sf.dirty = true;
  df.dentries[dst_name] = moving;
  df.dirty = true;
  node.parent = dst_dir;
  node.name = dst_name;
  return true;
}

Resolution Namespace::resolve(std::string_view path) const {
  Resolution r;
  InodeId cur = kRootInode;
  for (std::size_t pos = 0; pos < path.size();) {
    const std::size_t end = std::min(path.find('/', pos), path.size());
    const std::string_view name = path.substr(pos, end - pos);
    pos = end + 1;
    if (name.empty()) continue;  // a leading, trailing or doubled slash
    const Dir* d = dir(cur);
    if (d == nullptr) return r;  // a file in mid-path
    const DirFrag& f = d->pick_frag(hash_dentry_name(name));
    const auto it = f.dentries.find(name);
    if (it == f.dentries.end()) return r;
    cur = it->second;
  }
  r.found = true;
  r.ino = cur;
  r.is_dir = dir(cur) != nullptr;
  return r;
}

InodeId Namespace::lookup(InodeId dirino, std::string_view name) const {
  const Dir* d = dir(dirino);
  if (d == nullptr) return kNoInode;
  const DirFrag& f = d->pick_frag(hash_dentry_name(name));
  const auto it = f.dentries.find(name);
  return it == f.dentries.end() ? kNoInode : it->second;
}

std::vector<std::string> Namespace::readdir(InodeId dirino) const {
  std::vector<std::string> out;
  const Dir* d = dir(dirino);
  if (d == nullptr) return out;
  for (const auto& [frag, df] : d->frags)
    for (const auto& [name, ino] : df.dentries) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

const Inode* Namespace::inode(InodeId ino) const {
  if (ino >= inodes_.size()) return nullptr;
  const Inode& node = inodes_[ino];
  return node.id == kNoInode ? nullptr : &node;
}

Dir* Namespace::dir(InodeId ino) {
  return ino < dirs_.size() ? dirs_[ino].get() : nullptr;
}

const Dir* Namespace::dir(InodeId ino) const {
  return ino < dirs_.size() ? dirs_[ino].get() : nullptr;
}

DirFrag* Namespace::frag(const DirFragId& id) {
  Dir* d = dir(id.ino);
  if (d == nullptr) return nullptr;
  const auto it = d->frags.find(id.frag);
  return it == d->frags.end() ? nullptr : &it->second;
}

const DirFrag* Namespace::frag(const DirFragId& id) const {
  const Dir* d = dir(id.ino);
  if (d == nullptr) return nullptr;
  const auto it = d->frags.find(id.frag);
  return it == d->frags.end() ? nullptr : &it->second;
}

std::string Namespace::path_of(InodeId ino) const {
  if (ino == kRootInode) return "/";
  std::vector<const std::string*> parts;
  InodeId cur = ino;
  while (cur != kRootInode && cur != kNoInode) {
    const Inode* node = inode(cur);
    if (node == nullptr) return "<unlinked>";
    parts.push_back(&node->name);
    cur = node->parent;
  }
  std::string out;
  for (auto rit = parts.rbegin(); rit != parts.rend(); ++rit) {
    out += '/';
    out += **rit;
  }
  return out;
}

DirFragId Namespace::frag_of(InodeId dirino, const std::string& name) const {
  const Dir* d = dir(dirino);
  if (d == nullptr) return {};
  return {dirino, d->pick_frag(hash_dentry_name(name)).frag};
}

void Namespace::record_op(const DirFragId& where, MetaOp op, Time now) {
  DirFrag* f = frag(where);
  if (f == nullptr) return;
  f->pop.hit(op, now, rate_);
  // Hierarchical heat: every ancestor directory (including this one)
  // accumulates the op in its nested counters.
  InodeId cur = where.ino;
  while (cur != kNoInode) {
    Dir* d = dir(cur);
    if (d == nullptr) break;
    d->pop_nested.hit(op, now, rate_);
    cur = inodes_[cur].parent;
  }
}

double Namespace::frag_pop(const DirFragId& id, MetaOp op, Time now) const {
  const DirFrag* f = frag(id);
  return f == nullptr ? 0.0 : f->pop.get(op, now, rate_);
}

double Namespace::nested_pop(InodeId dirino, MetaOp op, Time now) const {
  const Dir* d = dir(dirino);
  return d == nullptr ? 0.0 : d->pop_nested.get(op, now, rate_);
}

std::vector<frag_t> Namespace::split(const DirFragId& id, std::uint8_t bits,
                                     Time now) {
  std::vector<frag_t> out;
  Dir* d = dir(id.ino);
  if (d == nullptr || bits == 0) return out;
  const auto it = d->frags.find(id.frag);
  if (it == d->frags.end()) return out;
  if (it->second.frag.bits() + bits > 24) return out;  // fragtree depth cap

  DirFrag parent = std::move(it->second);
  d->frags.erase(it);

  const std::uint32_t n = 1u << bits;
  const double share = 1.0 / static_cast<double>(n);
  std::vector<DirFrag*> kids;
  for (std::uint32_t i = 0; i < n; ++i) {
    const frag_t cf = parent.frag.child(i, bits);
    DirFrag child;
    child.frag = cf;
    child.auth = parent.auth;
    child.dirty = parent.dirty;
    // Each child inherits a proportional share of the parent's heat so the
    // balancer's view stays continuous across a split.
    child.pop = parent.pop;
    child.pop.scale(now, rate_, share);
    auto [kit, inserted] = d->frags.emplace(cf, std::move(child));
    kids.push_back(&kit->second);
    out.push_back(cf);
  }
  // Every dentry, and its directory-index entry, goes to the child
  // covering its hash.
  auto deal = [&](auto DirFrag::*names) {
    for (const auto& [name, ino] : parent.*names) {
      const std::uint32_t h = hash_dentry_name(name);
      for (DirFrag* k : kids) {
        if (k->frag.contains(h)) {
          (k->*names).emplace(name, ino);
          break;
        }
      }
    }
  };
  deal(&DirFrag::dentries);
  deal(&DirFrag::subdirs);
  return out;
}

bool Namespace::merge(InodeId dirino, frag_t parent_frag, Time now) {
  Dir* d = dir(dirino);
  if (d == nullptr) return false;
  DirFrag merged;
  merged.frag = parent_frag;
  bool any = false;
  for (auto it = d->frags.begin(); it != d->frags.end();) {
    if (parent_frag.contains(it->second.frag) &&
        it->second.frag != parent_frag) {
      any = true;
      DirFrag& child = it->second;
      merged.dentries.insert(child.dentries.begin(), child.dentries.end());
      merged.subdirs.insert(child.subdirs.begin(), child.subdirs.end());
      child.pop.sync(now, rate_);
      merged.pop.sync(now, rate_);
      merged.pop.merge(child.pop);
      merged.auth = child.auth;  // callers merge only within one authority
      merged.dirty = merged.dirty || child.dirty;
      it = d->frags.erase(it);
    } else {
      ++it;
    }
  }
  if (!any) return false;
  d->frags.emplace(parent_frag, std::move(merged));
  return true;
}

std::vector<InodeId> Namespace::subtree_dirs(InodeId dirino) const {
  std::vector<InodeId> out;
  std::vector<InodeId> stack{dirino};
  while (!stack.empty()) {
    const InodeId cur = stack.back();
    stack.pop_back();
    const Dir* d = dir(cur);
    if (d == nullptr) continue;
    out.push_back(cur);
    for (const auto& [f, df] : d->frags)
      for (const auto& [name, child] : df.subdirs) stack.push_back(child);
  }
  return out;
}

std::size_t Namespace::subtree_entries(InodeId dirino) const {
  std::size_t n = 0;
  for (const InodeId d : subtree_dirs(dirino)) n += dirs_[d]->num_entries();
  return n;
}

}  // namespace mantle::mds

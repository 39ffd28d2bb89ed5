#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mds/namespace.hpp"

/// Randomized consistency check: apply long random sequences of
/// mkdir/create/unlink/rename/split/merge against both the Namespace and
/// a trivial reference model (path-keyed map), then verify they agree and
/// that structural invariants hold. This is the property suite that
/// protects the migration/fragmentation mechanisms from aliasing bugs.
/// After every step it also holds each frag's directory index to the
/// frag's own dentries, which every namespace walk trusts, and checks the
/// id-indexed tables: live counts, and null for removed ids, for a file's
/// directory slot and past the last id handed out.

namespace mantle::mds {
namespace {

struct RefEntry {
  bool is_dir = false;
  InodeId ino = kNoInode;
};

class FuzzModel {
 public:
  FuzzModel() { ref_["/"] = {true, kRootInode}; }

  Namespace& ns() { return ns_; }

  // Every mutation goes through both the namespace and the reference map;
  // both must agree on success.
  void mkdir(const std::string& parent, const std::string& name) {
    const bool ref_ok = ref_.count(parent) && ref_.at(parent).is_dir &&
                        !ref_.count(join(parent, name));
    const auto res = ns_.resolve(parent);
    const InodeId ino =
        res.found && res.is_dir ? ns_.mkdir(res.ino, name, 0) : kNoInode;
    ASSERT_EQ(ino != kNoInode, ref_ok) << "mkdir " << join(parent, name);
    if (ref_ok) ref_[join(parent, name)] = {true, ino};
    last_ino_ = std::max(last_ino_, ino);
  }

  void create(const std::string& parent, const std::string& name) {
    const bool ref_ok = ref_.count(parent) && ref_.at(parent).is_dir &&
                        !ref_.count(join(parent, name));
    const auto res = ns_.resolve(parent);
    const InodeId ino =
        res.found && res.is_dir ? ns_.create(res.ino, name, 0) : kNoInode;
    ASSERT_EQ(ino != kNoInode, ref_ok) << "create " << join(parent, name);
    if (ref_ok) ref_[join(parent, name)] = {false, ino};
    last_ino_ = std::max(last_ino_, ino);
  }

  void unlink(const std::string& parent, const std::string& name) {
    const std::string path = join(parent, name);
    bool ref_ok = ref_.count(path) != 0;
    if (ref_ok && ref_.at(path).is_dir) {
      // Only empty directories are removable.
      for (const auto& [p, e] : ref_)
        if (p != path && p.rfind(path + "/", 0) == 0) {
          ref_ok = false;
          break;
        }
    }
    const auto res = ns_.resolve(parent);
    const bool ok = res.found && ns_.remove(res.ino, name);
    ASSERT_EQ(ok, ref_ok) << "unlink " << path;
    if (!ref_ok) return;
    removed_.push_back(ref_.at(path).ino);
    ref_.erase(path);
  }

  void rename(const std::string& sparent, const std::string& sname,
              const std::string& dparent, const std::string& dname) {
    const std::string spath = join(sparent, sname);
    const std::string dpath = join(dparent, dname);
    bool ref_ok = ref_.count(spath) && ref_.count(dparent) &&
                  ref_.at(dparent).is_dir && !ref_.count(dpath);
    // Cycle: destination inside (or equal to) the moved subtree.
    if (ref_ok && ref_.at(spath).is_dir &&
        (dpath == spath || dparent == spath ||
         dparent.rfind(spath + "/", 0) == 0))
      ref_ok = false;
    const auto src = ns_.resolve(sparent);
    const auto dst = ns_.resolve(dparent);
    const bool ok = src.found && dst.found &&
                    ns_.rename(src.ino, sname, dst.ino, dname);
    ASSERT_EQ(ok, ref_ok) << "rename " << spath << " -> " << dpath;
    if (!ref_ok) return;
    // Move the entry and all descendants in the reference map.
    std::map<std::string, RefEntry> moved;
    for (auto it = ref_.begin(); it != ref_.end();) {
      if (it->first == spath || it->first.rfind(spath + "/", 0) == 0) {
        moved[dpath + it->first.substr(spath.size())] = it->second;
        it = ref_.erase(it);
      } else {
        ++it;
      }
    }
    ref_.insert(moved.begin(), moved.end());
  }

  void split_random(Rng& rng) {
    const std::string dir = random_dir(rng);
    const auto res = ns_.resolve(dir);
    ASSERT_TRUE(res.found);
    const Dir* d = ns_.dir(res.ino);
    // Split the first leaf fragment by 1-2 bits (structure only; the
    // visible namespace must not change).
    const frag_t f = d->frags.begin()->first;
    ns_.split({res.ino, f}, static_cast<std::uint8_t>(1 + rng.uniform(0, 1)), 0);
  }

  void merge_random(Rng& rng) {
    const std::string dir = random_dir(rng);
    const auto res = ns_.resolve(dir);
    ASSERT_TRUE(res.found);
    ns_.merge(res.ino, frag_t(), 0);
  }

  std::string random_dir(Rng& rng) const {
    std::vector<std::string> dirs;
    for (const auto& [p, e] : ref_)
      if (e.is_dir) dirs.push_back(p);
    return dirs[rng.uniform(0, dirs.size() - 1)];
  }

  std::string random_path(Rng& rng) const {
    std::vector<std::string> all;
    for (const auto& [p, e] : ref_)
      if (p != "/") all.push_back(p);
    if (all.empty()) return "";
    return all[rng.uniform(0, all.size() - 1)];
  }

  static std::string join(const std::string& parent, const std::string& name) {
    return parent == "/" ? "/" + name : parent + "/" + name;
  }

  static std::pair<std::string, std::string> split_parent(const std::string& p) {
    const auto pos = p.find_last_of('/');
    std::string parent = p.substr(0, pos);
    if (parent.empty()) parent = "/";
    return {parent, p.substr(pos + 1)};
  }

  /// Every frag of every reference directory indexes exactly its directory
  /// dentries, in name order: no file, no stale name, none missing.
  /// Directories are reached through the reference paths, not through
  /// the index under test.
  void verify_index() const {
    using Entries = std::vector<std::pair<std::string, InodeId>>;
    for (const auto& [path, entry] : ref_) {
      if (!entry.is_dir) continue;
      const Dir* d = ns_.dir(ns_.resolve(path).ino);
      ASSERT_NE(d, nullptr) << path;
      for (const auto& [f, df] : d->frags) {
        Entries want;
        for (const auto& [name, ino] : df.dentries) {
          const Inode* node = ns_.inode(ino);
          ASSERT_NE(node, nullptr) << path << "/" << name;
          if (node->is_dir) want.emplace_back(name, ino);
        }
        std::sort(want.begin(), want.end());
        ASSERT_EQ(Entries(df.subdirs.begin(), df.subdirs.end()), want)
            << path << " frag " << f.str();
      }
    }
  }

  /// The id-indexed tables: live counts match the model, a removed id
  /// and any id past the last one handed out give null, and a file has
  /// no directory.
  void verify_tables() const {
    std::size_t dirs = 0;
    for (const auto& [path, entry] : ref_) {
      if (entry.is_dir) {
        ++dirs;
      } else {
        ASSERT_NE(ns_.inode(entry.ino), nullptr) << path;
        ASSERT_EQ(ns_.dir(entry.ino), nullptr) << path;
      }
    }
    ASSERT_EQ(ns_.num_inodes(), ref_.size());
    ASSERT_EQ(ns_.num_dirs(), dirs);
    for (const InodeId ino : removed_) {
      ASSERT_EQ(ns_.inode(ino), nullptr) << "removed " << ino;
      ASSERT_EQ(ns_.dir(ino), nullptr) << "removed " << ino;
    }
    for (const InodeId ino : {kNoInode, last_ino_ + 1}) {
      ASSERT_EQ(ns_.inode(ino), nullptr) << ino;
      ASSERT_EQ(ns_.dir(ino), nullptr) << ino;
    }
  }

  /// Full cross-check of the namespace against the reference model.
  void verify() const {
    // 1. Every reference path resolves, with the right type and path_of.
    for (const auto& [path, entry] : ref_) {
      const auto res = ns_.resolve(path);
      ASSERT_TRUE(res.found) << path;
      EXPECT_EQ(res.is_dir, entry.is_dir) << path;
      EXPECT_EQ(ns_.path_of(res.ino), path);
    }
    // 2. Inode counts agree (reference includes "/").
    EXPECT_EQ(ns_.num_inodes(), ref_.size());
    // 3. Every directory's fragments partition the hash space: each
    //    dentry lives in exactly the fragment covering its hash, and
    //    readdir sees exactly the reference children.
    for (const auto& [path, entry] : ref_) {
      if (!entry.is_dir) continue;
      const auto res = ns_.resolve(path);
      const Dir* d = ns_.dir(res.ino);
      ASSERT_NE(d, nullptr) << path;
      std::set<std::string> expect;
      for (const auto& [p, e] : ref_) {
        if (p == path || p.rfind(path == "/" ? "/" : path + "/", 0) != 0)
          continue;
        const auto [par, name] = split_parent(p);
        if (par == path) expect.insert(name);
      }
      const auto listed = ns_.readdir(res.ino);
      EXPECT_EQ(std::set<std::string>(listed.begin(), listed.end()), expect)
          << path;
      for (const auto& [f, df] : d->frags)
        for (const auto& [name, ino] : df.dentries)
          EXPECT_TRUE(f.contains(hash_dentry_name(name)))
              << path << "/" << name << " in wrong fragment";
    }
    // 4. subtree_dirs reaches every reference directory exactly once.
    std::set<InodeId> want_dirs;
    for (const auto& [path, entry] : ref_)
      if (entry.is_dir) want_dirs.insert(ns_.resolve(path).ino);
    const auto dirs = ns_.subtree_dirs(ns_.root());
    EXPECT_EQ(dirs.size(), want_dirs.size());
    EXPECT_EQ(std::set<InodeId>(dirs.begin(), dirs.end()), want_dirs);
  }

 private:
  Namespace ns_;
  std::map<std::string, RefEntry> ref_;
  std::vector<InodeId> removed_;    // ids of unlinked entries
  InodeId last_ino_ = kRootInode;  // the largest id handed out
};

class NamespaceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NamespaceFuzz, RandomOpsKeepModelAndNamespaceInAgreement) {
  Rng rng(GetParam());
  FuzzModel m;
  for (int step = 0; step < 1200; ++step) {
    const double u = rng.next_double();
    const std::string name = "n" + std::to_string(rng.uniform(0, 60));
    if (u < 0.25) {
      m.mkdir(m.random_dir(rng), name);
    } else if (u < 0.55) {
      m.create(m.random_dir(rng), name);
    } else if (u < 0.70) {
      const std::string victim = m.random_path(rng);
      if (!victim.empty()) {
        const auto [parent, vname] = FuzzModel::split_parent(victim);
        m.unlink(parent, vname);
      }
    } else if (u < 0.85) {
      const std::string src = m.random_path(rng);
      if (!src.empty()) {
        const auto [sparent, sname] = FuzzModel::split_parent(src);
        m.rename(sparent, sname, m.random_dir(rng),
                 "r" + std::to_string(rng.uniform(0, 60)));
      }
    } else if (u < 0.93) {
      m.split_random(rng);
    } else {
      m.merge_random(rng);
    }
    if (::testing::Test::HasFatalFailure()) return;
    m.verify_index();
    if (::testing::Test::HasFatalFailure()) return;
    m.verify_tables();
    if (::testing::Test::HasFatalFailure()) return;
    if (step % 300 == 299) m.verify();
  }
  m.verify();
}

INSTANTIATE_TEST_SUITE_P(Seeds, NamespaceFuzz,
                         ::testing::Values(1, 2, 3, 7, 11, 23, 42, 1999));

}  // namespace
}  // namespace mantle::mds

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mds/namespace.hpp"

/// Namespace::resolve walks a path in place, one component at a time.
/// This suite holds it to the walk it replaced: split the path into
/// strings, look each one up under the directory reached so far, and read
/// the type of the last inode. Random namespaces are built with splits,
/// renames and removes; random paths mix live, renamed-away, removed and
/// never-made names with leading, trailing and doubled slashes.

namespace mantle::mds {
namespace {

/// The reference walk: split_path, then one lookup per component.
Resolution reference_resolve(const Namespace& ns, const std::string& path) {
  Resolution r;
  InodeId cur = ns.root();
  for (const std::string& name : split_path(path)) {
    cur = ns.lookup(cur, name);
    if (cur == kNoInode) return r;
  }
  r.found = true;
  r.ino = cur;
  r.is_dir = ns.inode(cur)->is_dir;
  return r;
}

void expect_same(const Namespace& ns, const std::string& path) {
  const Resolution want = reference_resolve(ns, path);
  const Resolution got = ns.resolve(path);
  EXPECT_EQ(got.found, want.found) << '"' << path << '"';
  EXPECT_EQ(got.ino, want.ino) << '"' << path << '"';
  EXPECT_EQ(got.is_dir, want.is_dir) << '"' << path << '"';
}

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& v) {
  return v[rng.uniform(0, v.size() - 1)];
}

/// Names are drawn from a small vocabulary, so they repeat across
/// directories and a name removed or renamed away in one place is often
/// live in another.
std::string random_name(Rng& rng) {
  return (rng.next_double() < 0.5 ? "d" : "f") +
         std::to_string(rng.uniform(0, 11));
}

/// A random namespace: mkdirs and creates, then splits, renames and
/// removes interleaved with more of them.
Namespace random_namespace(Rng& rng) {
  Namespace ns;
  for (int step = 0; step < 400; ++step) {
    const std::vector<InodeId> dirs = ns.subtree_dirs(ns.root());
    const InodeId parent = pick(rng, dirs);
    const double u = rng.next_double();
    if (u < 0.35 || step < 100) {
      ns.mkdir(parent, random_name(rng), 0);
    } else if (u < 0.7) {
      ns.create(parent, random_name(rng), 0);
    } else if (u < 0.8) {
      const Dir* d = ns.dir(parent);
      const frag_t f = d->frags.begin()->first;
      ns.split({parent, f}, static_cast<std::uint8_t>(1 + rng.uniform(0, 1)),
               0);
    } else {
      const std::vector<std::string> names = ns.readdir(parent);
      if (names.empty()) continue;
      const std::string& name = pick(rng, names);
      if (u < 0.9)
        ns.rename(parent, name, pick(rng, dirs), random_name(rng));
      else
        ns.remove(parent, name);
    }
  }
  return ns;
}

/// A random path: a walk from the root that mostly follows live dentries
/// (files included, so some paths continue through a file) and sometimes
/// takes a vocabulary name that may be missing, written with random
/// slashes.
std::string random_path(const Namespace& ns, Rng& rng) {
  std::vector<std::string> parts;
  InodeId cur = ns.root();
  const std::uint64_t depth = rng.uniform(0, 5);
  for (std::uint64_t i = 0; i < depth; ++i) {
    const std::vector<std::string> names =
        cur == kNoInode ? std::vector<std::string>{} : ns.readdir(cur);
    const std::string name = names.empty() || rng.next_double() < 0.15
                                 ? random_name(rng)
                                 : pick(rng, names);
    parts.push_back(name);
    cur = cur == kNoInode ? kNoInode : ns.lookup(cur, name);
  }
  std::string path = rng.next_double() < 0.8 ? "/" : "";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) path += '/';
    while (rng.next_double() < 0.15) path += '/';
    path += parts[i];
  }
  if (rng.next_double() < 0.15) path += '/';
  return path;
}

class ResolveOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResolveOracle, MatchesLookupChainOnRandomNamespaces) {
  Rng rng(GetParam());
  const Namespace ns = random_namespace(rng);

  // The fixed forms first: empty, root, slashes only, relative, doubled,
  // missing, and a file in mid-path.
  const std::vector<std::string> names = ns.readdir(ns.root());
  ASSERT_FALSE(names.empty());
  const std::string& top = names.front();
  std::string file;
  for (const InodeId d : ns.subtree_dirs(ns.root()))
    for (const std::string& name : ns.readdir(d))
      if (const InodeId ino = ns.lookup(d, name); !ns.inode(ino)->is_dir)
        file = ns.path_of(ino);
  ASSERT_FALSE(file.empty());
  const std::vector<std::string> fixed = {
      "", "/", "//", "///", top, "/" + top, "//" + top, "/" + top + "/",
      "/" + top + "//", top + "/", "/nope", "/" + top + "/nope",
      "/" + top + "/nope/deeper", file, file + "/", file + "/x",
      file + "/x/y"};
  for (const std::string& path : fixed) expect_same(ns, path);

  // Then random paths, counting what they reached so a generator that
  // stopped covering a case would show.
  int found_dirs = 0, found_files = 0, missing = 0, through_file = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string path = random_path(ns, rng);
    expect_same(ns, path);
    const Resolution want = reference_resolve(ns, path);
    if (want.found) {
      ++(want.is_dir ? found_dirs : found_files);
      continue;
    }
    ++missing;
    // A miss whose walk reaches a file with components still to go.
    InodeId cur = ns.root();
    for (const std::string& name : split_path(path)) {
      const Inode* node = ns.inode(cur);
      if (node != nullptr && !node->is_dir) {
        ++through_file;
        break;
      }
      cur = ns.lookup(cur, name);
      if (cur == kNoInode) break;
    }
  }
  EXPECT_GT(found_dirs, 500);
  EXPECT_GT(found_files, 50);
  EXPECT_GT(missing, 500);
  EXPECT_GT(through_file, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResolveOracle,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace mantle::mds

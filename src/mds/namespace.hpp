#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mds/pop.hpp"
#include "mds/types.hpp"

/// \file namespace.hpp
/// The hierarchical namespace: inodes, dentries, directories and their
/// fragments. This is the *mechanism* layer of dynamic subtree
/// partitioning — it knows how to resolve paths, how to split and merge
/// dirfrags, and how to account popularity, but nothing about policies,
/// authority or migration (those live in the cluster layer).
///
/// In CephFS the namespace is "kept in the collective memory of the MDS
/// cluster"; the simulator keeps one ground-truth Namespace that all
/// simulated MDS nodes operate on, with per-dirfrag authority annotations
/// deciding which node is allowed to serve which part.

namespace mantle::mds {

struct Inode {
  InodeId id = kNoInode;
  InodeId parent = kNoInode;  // parent directory inode
  std::string name;           // dentry name under the parent
  bool is_dir = false;
  Time ctime = 0;
};

/// Hashes the names in `DirFrag::dentries`. Transparent, so a lookup by
/// std::string_view builds no std::string. Not noexcept: libstdc++ then
/// keeps each node's hash, so a bucket scan never hashes a stored name.
struct DentryHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view name) const {
    return std::hash<std::string_view>{}(name);
  }
};

/// One fragment of one directory: the unit of authority and migration.
struct DirFrag {
  frag_t frag;
  /// The names whose hash lands here, hashed for lookup; iteration order
  /// is unspecified (readdir sorts).
  std::unordered_map<std::string, InodeId, DentryHash, std::equal_to<>>
      dentries;
  /// The directory entries of `dentries` alone, in name order: walks over
  /// the directory tree read this and never touch files.
  std::map<std::string, InodeId> subdirs;
  PopVector pop;                            // ops directly on this fragment
  MdsRank auth = kNoRank;                   // maintained by the cluster layer
  bool dirty = false;                       // needs a STORE before eviction
};

/// A directory: a set of leaf fragments partitioning the dentry-hash
/// space, plus the hierarchically accumulated popularity that the
/// balancer reads ("counters are stored in the directories and updated
/// whenever a namespace operation hits that directory or its children").
struct Dir {
  InodeId ino = kNoInode;
  std::map<frag_t, DirFrag> frags;
  PopVector pop_nested;  // this dir plus all descendants

  std::size_t num_entries() const {
    std::size_t n = 0;
    for (const auto& [f, df] : frags) n += df.dentries.size();
    return n;
  }

  /// The leaf fragment covering a dentry hash.
  const DirFrag& pick_frag(std::uint32_t hash) const;
  DirFrag& pick_frag(std::uint32_t hash);
};

struct Resolution {
  bool found = false;
  InodeId ino = kNoInode;  // final inode when found
  bool is_dir = false;
};

class Namespace {
 public:
  explicit Namespace(DecayRate rate = DecayRate(5.0));

  InodeId root() const { return kRootInode; }
  const DecayRate& decay_rate() const { return rate_; }

  // -- Mutation (mechanism only; callers record the MetaOps) ---------------
  /// Create a directory under `parent`; returns its inode id or kNoInode if
  /// the name exists or `parent` is not a directory.
  InodeId mkdir(InodeId parent, const std::string& name, Time now);

  /// Create a file; same contract as mkdir.
  InodeId create(InodeId parent, const std::string& name, Time now);

  /// Remove a dentry (file or *empty* directory). False on failure.
  bool remove(InodeId parent, const std::string& name);

  /// Move a dentry (file or whole directory subtree) to a new parent
  /// and/or name. Fails when the source is missing, the destination
  /// exists, either directory is invalid, or the move would create a
  /// cycle (destination inside the moved subtree).
  bool rename(InodeId src_dir, const std::string& src_name, InodeId dst_dir,
              const std::string& dst_name);

  // -- Lookup ---------------------------------------------------------------
  /// Resolve a path ("/a/b/c") from the root, reading each component in
  /// place. Leading, trailing and doubled slashes are skipped, so a
  /// relative path resolves from the root too.
  Resolution resolve(std::string_view path) const;

  /// Resolve one component under a directory.
  InodeId lookup(InodeId dir, std::string_view name) const;

  /// All dentry names in a directory (across fragments, sorted).
  std::vector<std::string> readdir(InodeId dir) const;

  // -- Accessors -------------------------------------------------------------
  const Inode* inode(InodeId ino) const;
  Dir* dir(InodeId ino);
  const Dir* dir(InodeId ino) const;
  DirFrag* frag(const DirFragId& id);
  const DirFrag* frag(const DirFragId& id) const;

  /// Absolute path of an inode (for diagnostics and heat maps).
  std::string path_of(InodeId ino) const;

  /// Which dirfrag holds the dentry `name` under `dir`.
  DirFragId frag_of(InodeId dir, const std::string& name) const;

  // -- Popularity -------------------------------------------------------------
  /// Record an op on a dirfrag: bumps the fragment's own counters and the
  /// nested counters of every ancestor directory (the hierarchical heat of
  /// the paper's Figure 1).
  void record_op(const DirFragId& where, MetaOp op, Time now);

  /// Decayed op count directly on a fragment.
  double frag_pop(const DirFragId& id, MetaOp op, Time now) const;

  /// Decayed nested op count for a directory subtree.
  double nested_pop(InodeId dir, MetaOp op, Time now) const;

  // -- Fragmentation mechanism -------------------------------------------------
  /// Split a leaf fragment into 2^bits children. Dentries are
  /// redistributed by hash; heat is split proportionally; children inherit
  /// the parent fragment's authority. Returns the new fragments.
  std::vector<frag_t> split(const DirFragId& id, std::uint8_t bits, Time now);

  /// Merge all leaves under `parent_frag` back into it. False if the
  /// directory has no leaves strictly under parent_frag.
  bool merge(InodeId dir, frag_t parent_frag, Time now);

  // -- Introspection -------------------------------------------------------------
  /// Live inodes and directories; a removed id no longer counts.
  std::size_t num_inodes() const { return live_inodes_; }
  std::size_t num_dirs() const { return live_dirs_; }

  /// Inodes of every directory in the subtree rooted at `dir` (inclusive),
  /// preorder over the per-frag directory indexes. Used by migration size
  /// accounting, the invariant checker and the heat map harness.
  std::vector<InodeId> subtree_dirs(InodeId dir) const;

  /// Total dentries in the subtree rooted at `dir`.
  std::size_t subtree_entries(InodeId dir) const;

 private:
  /// Link a new file or directory under `parent`: mkdir and create.
  InodeId add(InodeId parent, const std::string& name, bool is_dir, Time now);

  DecayRate rate_;
  /// Both tables are indexed by inode id. Ids are handed out in order
  /// (the next id is the tables' size) and never reused, so a removed id
  /// keeps its slot, emptied: an Inode whose id is kNoInode and a null
  /// Dir. A file's Dir slot is null too. Deques, so that growing a table
  /// neither moves nor copies an entry: an Inode* or Dir* a caller holds
  /// stays valid across a mkdir or create.
  std::deque<Inode> inodes_;
  std::deque<std::unique_ptr<Dir>> dirs_;
  std::size_t live_inodes_ = 0;
  std::size_t live_dirs_ = 0;
};

/// Split an absolute path into components; leading/trailing/duplicate
/// slashes are tolerated.
std::vector<std::string> split_path(const std::string& path);

}  // namespace mantle::mds

// The DFS namespace: directories and files, where a file is a list of block
// locations. Every entry lives in one map keyed by normalized path under
// PathOrder ('/' sorts first), so iterating the map walks the tree
// depth-first in name order and a directory's subtree is one contiguous
// range. All operations are atomic under one mutex (the real HDFS namenode
// is likewise a single serialized namespace).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dfs/block.hpp"
#include "dfs/path.hpp"

namespace mri::dfs {

/// Outcome of repair_after_node_loss(): re-replication traffic plus blocks
/// whose last replica died with the node.
struct BlockRepairSummary {
  std::uint64_t re_replicated_bytes = 0;
  int re_replicated_blocks = 0;
  int blocks_lost = 0;
  /// Erasure-coded stripe cells rebuilt by decode from k survivors (counted
  /// separately from re_replicated_* — reconstruction reads k cells to
  /// rewrite one, replication copies one replica verbatim).
  int ec_cells_reconstructed = 0;
  std::uint64_t ec_reconstructed_bytes = 0;
  /// Paths of files that lost at least one block entirely (every replica
  /// dead, or fewer than k cells of a stripe surviving). The engine layer
  /// uses these to trigger lineage recomputation of memory-tier
  /// intermediates instead of fail-fast.
  std::vector<std::string> lost_files;
};

/// A copy the node-loss repair callback placed: the node now holding it (-1
/// when no eligible node was left) and, for an erasure-coded cell, the
/// rebuilt payload the namenode stores in the cell's slot.
struct PlacedCopy {
  int node = -1;
  BlockData cell;
};

class NameNode {
 public:
  NameNode();

  /// Creates a directory and any missing ancestors. Idempotent.
  void mkdirs(const std::string& path);

  /// Registers a file with its committed blocks. Parent directories are
  /// created implicitly (matching HDFS create semantics). Files are
  /// write-once: committing over an existing path is an error.
  void commit_file(const std::string& path, std::vector<BlockLocation> blocks,
                   StorageTier tier = StorageTier::kDisk);

  /// The tier the file was committed on (or moved to by set_file_tier).
  StorageTier file_tier(const std::string& path) const;
  /// Retiers a file in place — spill (memory -> disk) leaves the payload on
  /// the same datanode; only the accounting model for future reads changes.
  void set_file_tier(const std::string& path, StorageTier tier);

  bool exists(const std::string& path) const;
  bool is_directory(const std::string& path) const;
  bool is_file(const std::string& path) const;

  std::uint64_t file_size(const std::string& path) const;
  std::vector<BlockLocation> file_blocks(const std::string& path) const;

  /// Sorted child names of a directory.
  std::vector<std::string> list(const std::string& dir) const;

  /// Removes a file, or a directory (recursively when `recursive`).
  /// Returns the block records of every removed file so the caller can
  /// forget their corrupt marks; `removed_paths` (may be null) receives the
  /// full path of every removed file for cache/lineage invalidation.
  std::vector<BlockLocation> remove(const std::string& path,
                                    bool recursive = false,
                                    std::vector<std::string>* removed_paths =
                                        nullptr);

  /// Number of files in the whole namespace (used by §6.1 tests).
  std::size_t file_count() const;

  /// One file's identity and block map, as captured by snapshot_files().
  struct FileInfo {
    std::string path;
    StorageTier tier = StorageTier::kDisk;
    std::vector<BlockLocation> blocks;
  };

  /// One file resolved in a single lookup: its normalized path, tier and
  /// block map. Throws DfsError when no file lives at `path`.
  FileInfo resolve(const std::string& path) const;

  /// Every file in the namespace with its tier and block locations, in
  /// depth-first name order — the iteration surface for the integrity
  /// scrubber and the chaos corrupt-block victim pick (unlike the flattened
  /// remove() output, per-file path/block alignment is kept).
  std::vector<FileInfo> snapshot_files() const;

  /// Sum of file sizes across the namespace: the logical bytes stored,
  /// independent of replication factor or parity overhead.
  std::uint64_t total_logical_bytes() const;

  /// Bytes held by every live copy: a replicated block's length per
  /// replica plus an erasure-coded block's cell length per surviving cell.
  std::uint64_t total_physical_bytes() const;

  /// Node-loss repair (HDFS block management): removes `node` from every
  /// file's replica lists, then restores each under-replicated block toward
  /// `target_replication` by calling `replicate(loc, cell)`, which places a
  /// copy of `loc` (cell == -1, plain replication) or reconstructs stripe
  /// cell `cell` from k survivors (erasure-coded blocks) on a new node and
  /// returns it (node -1 when no eligible node is left — the block stays
  /// degraded). For EC blocks the dead node's slots are set to -1 and their
  /// cells dropped (slot order is cell identity), and every hole is rebuilt
  /// while >= k cells survive; with fewer survivors the stripe is lost.
  /// Blocks whose last replica died drop their payload but remain
  /// registered so reads surface UnrecoverableBlock instead of "no such
  /// file". Runs atomically under the namespace lock.
  BlockRepairSummary repair_after_node_loss(
      int node, int target_replication,
      const std::function<PlacedCopy(const BlockLocation&, int cell)>&
          replicate);

 private:
  struct Entry {
    bool is_dir = true;
    StorageTier tier = StorageTier::kDisk;  // files only
    std::uint64_t size = 0;                 // files only
    std::vector<BlockLocation> blocks;      // files only
  };
  using Namespace = std::map<std::string, Entry, PathOrder>;

  /// The file entry at normalized `path`; throws DfsError when none.
  const Entry& file(const std::string& path) const;
  /// Creates normalized directory `path` and its missing ancestors.
  void make_dirs(const std::string& path);
  /// One past the last entry of the subtree rooted at `dir`.
  Namespace::const_iterator subtree_end(Namespace::const_iterator dir) const;

  mutable std::mutex mu_;
  Namespace entries_;
};

}  // namespace mri::dfs

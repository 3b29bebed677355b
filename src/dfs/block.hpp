// DFS data blocks.
//
// A file is a sequence of blocks, and each block is one record: where its
// copies live, the bytes they serve and their expected checksums. A
// replicated block's payload is stored once and served by every replica —
// replication is placement metadata plus accounted network/disk cost, not a
// physical copy, which keeps the simulator's memory footprint equal to the
// logical data size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mri::dfs {

using BlockId = std::uint64_t;
using BlockData = std::shared_ptr<const std::vector<std::byte>>;

/// Where a file's payload lives. kMemory models the §8 Spark-style
/// extension: a single unreplicated in-memory copy (lineage, not
/// replication, provides fault tolerance), charged at memory bandwidth on
/// write. Tracked per file by the namenode; spill flips a file back to
/// kDisk without moving its payload.
enum class StorageTier { kDisk, kMemory };

struct BlockLocation {
  BlockId id = 0;
  std::uint64_t length = 0;
  /// Datanode indices holding a replica (first = primary). For an
  /// erasure-coded block (one block = one RS stripe) the vector instead has
  /// exactly ec_k + ec_m entries: slot i names the node holding stripe cell
  /// i (first ec_k data cells, then ec_m parity cells). Slot position IS the
  /// cell identity, so a lost cell is marked with -1, never erased.
  std::vector<int> replicas;
  /// RS stripe shape; 0,0 means a plain replicated block.
  int ec_k = 0;
  int ec_m = 0;
  /// A replicated block's payload, served by every replica; null once the
  /// last replica is gone.
  BlockData data;
  /// An erasure-coded block's cell payloads, parallel to `replicas`; null
  /// where the cell is lost.
  std::vector<BlockData> cells;
  /// Expected CRC32C per cell (one for a replicated block), filled on
  /// commit when checksums are verified and empty otherwise.
  std::vector<std::uint32_t> crcs;

  bool is_ec() const { return ec_k > 0; }
  /// Per-cell payload length: the block payload split into ec_k equal cells
  /// (last one zero-padded to this size).
  std::uint64_t cell_bytes() const {
    return is_ec() ? (length + static_cast<std::uint64_t>(ec_k) - 1) /
                         static_cast<std::uint64_t>(ec_k)
                   : length;
  }
};

}  // namespace mri::dfs

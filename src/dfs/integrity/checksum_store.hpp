// Corruption bookkeeping and the integrity counters.
//
// The DFS keeps one payload object per block and shares it across replicas
// (replication is metadata, not copies), so a corrupted *replica* cannot be
// modelled by mutating bytes — it is a per-(block, node) mark. The store
// tracks which (block, node) copies have been silently corrupted by chaos;
// each block's expected per-cell CRC32C values (one cell for replicated
// blocks, k+m cells for an erasure-coded stripe) live in its BlockLocation.
//
// A read that lands on a marked copy *succeeds* — that is the point of
// silent corruption. With verification off the reader receives a
// deterministic bit-flipped view of the payload (corrupt_copy); with
// verification on the Dfs recomputes the CRC, detects the mismatch, falls
// through to a healthy source and read-repairs the bad copy (clearing the
// mark models rewriting good bytes over the quarantined replica).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dfs/block.hpp"
#include "sim/layer_stats.hpp"

namespace mri::dfs {

/// A silently corrupted (block, node) copy: when it happened and the RNG
/// salt that makes the bit-flip pattern deterministic per event.
struct CorruptMark {
  std::uint64_t salt = 0;
  double at = 0.0;
};

/// The counters and events live in sim/layer_stats.hpp with the other
/// layers' records; perfbench/ still names them dfs::IntegrityStats.
using mri::IntegrityStats;

/// Thread-safe corrupt-copy marks and the integrity counters the Dfs
/// accumulates over them (one mutex guards both).
class ChecksumStore {
 public:
  /// Drops any marks on the copies of removed `blocks`.
  void forget(const std::vector<BlockLocation>& blocks);

  /// Marks the copy of `block` on `node` as silently corrupted and counts
  /// the injection. Returns false when the copy was already marked (first
  /// corruption wins: the copy is already bad and the original salt keeps
  /// the bit pattern stable, so a repeat hit changes nothing observable).
  bool mark_corrupt(BlockId block, int node, std::uint64_t salt, double at);

  /// The corruption mark on (block, node), if any.
  std::optional<CorruptMark> corrupt_mark(BlockId block, int node) const;

  /// Clears a mark after repair. Returns false if none was present.
  bool clear_corrupt(BlockId block, int node);

  /// Clears every mark on `node` (its copies died with it). Returns false
  /// when there was none.
  bool clear_node(int node);

  /// Blocks with at least one marked copy.
  std::set<BlockId> marked_blocks() const;

  /// Counts cells CRC'd on the write path.
  void count_checksummed(std::int64_t cells);
  /// Counts cells, and their bytes, CRC-checked on a read or a scrub.
  void count_verified(std::int64_t cells, std::uint64_t bytes);
  /// Counts a repair whose mark the caller cleared: one detection, one
  /// quarantined cell and one repair of `event.kind`.
  void record_repair(IntegrityRepairEvent event);
  /// Counts one scrubber pass.
  void record_scrub(const ScrubPassEvent& pass);

  IntegrityStats stats() const;

 private:
  mutable std::mutex mu_;
  std::map<std::pair<BlockId, int>, CorruptMark> marks_;
  IntegrityStats stats_;
};

/// A deterministic silently-corrupted view of `data`: flips one bit (XOR
/// 0x08) in each of eight salt-chosen bytes. Single-bit flips in the
/// mantissa/low-exponent region of finite doubles stay finite, so corrupted
/// matrix tiles poison the numerics (large residual) without manufacturing
/// NaN/Inf. Guaranteed to differ from the original even if positions
/// collide.
BlockData corrupt_copy(const BlockData& data, std::uint64_t salt);

}  // namespace mri::dfs

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

namespace mri::dfs {

/// A silently corrupted (block, node) copy: when it happened and the RNG
/// salt that makes the bit-flip pattern deterministic per event.
struct CorruptMark {
  std::uint64_t salt = 0;
  double at = 0.0;
};

/// One repair action, for the report's integrity lane. kind is "copy"
/// (re-materialized from a healthy replica), "ec" (decoded from k
/// survivors) or "lineage" (memory-tier partition recomputed). The victim
/// is identified by path + cell, not block id — ids follow commit order,
/// which races across task threads, and repair events must stay
/// bit-identical between same-seed runs.
struct IntegrityRepairEvent {
  double at = 0.0;
  int node = -1;
  std::string path;
  int cell = 0;
  std::uint64_t bytes = 0;
  const char* kind = "copy";
  bool by_scrubber = false;
};

/// One background scrubber pass over the namespace.
struct ScrubPassEvent {
  double at = 0.0;
  double seconds = 0.0;
  std::uint64_t bytes_scanned = 0;
  std::int64_t cells_verified = 0;
  std::int64_t cells_repaired = 0;
};

/// Integrity counters accumulated by the Dfs (write-path checksumming,
/// verify-on-read, read-repair, scrubbing). All-zero on a clean run with
/// verification off, which keeps pre-integrity reports bit-identical.
struct IntegrityStats {
  std::int64_t cells_checksummed = 0;   // cells CRC'd on the write path
  std::int64_t cells_verified = 0;      // cells CRC-checked on read/scrub
  std::uint64_t bytes_verified = 0;
  std::int64_t corruptions_injected = 0;
  std::int64_t corruptions_detected = 0;
  std::int64_t cells_repaired_copy = 0;
  std::int64_t cells_repaired_ec = 0;
  std::int64_t cells_repaired_lineage = 0;
  std::int64_t cells_quarantined = 0;
  std::int64_t scrub_passes = 0;
  std::uint64_t scrub_bytes_scanned = 0;
  double scrub_seconds = 0.0;
  std::vector<IntegrityRepairEvent> repairs;
  std::vector<ScrubPassEvent> scrubs;
};

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

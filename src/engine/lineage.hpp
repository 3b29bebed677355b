// Lineage graph for memory-tier intermediates.
//
// SPIN/Spark fault tolerance: an in-memory partition has one replica; if its
// node dies the partition is REBUILT by re-running the task that produced it
// (whose inputs are either base data on the replicated disk tier or other
// lineage-tracked partitions), not re-replicated. The graph records, per
// memory-tier file, the producing job, the producer task's read-set, its
// production cost (the task's full IoStats, so the simulated re-run costs
// what the original run cost), and the committed block payloads — the
// simulator runs real computation eagerly, so "recompute" restores the
// retained payload while charging the simulated re-execution time. The
// payloads are the DFS's own immutable blocks, shared rather than copied,
// so a tracked partition is held once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dfs/block.hpp"
#include "sim/io_stats.hpp"

namespace mri::engine {

struct LineageRecord {
  /// Ordinal of the producing job in submission order.
  std::uint64_t producer_job = 0;
  std::string producer_name;
  /// Paths the producing task read (its lineage inputs). Untracked paths
  /// are base data: disk-tier, replication-protected, always readable.
  std::vector<std::string> inputs;
  std::uint64_t size = 0;
  /// 1 + max depth of tracked inputs (1 = produced from base data alone).
  /// Recovery re-runs producers in ascending-depth waves so a partition's
  /// inputs are restored before the partition itself.
  int depth = 1;
  /// The producing task's accounting, including this write — the simulated
  /// cost of one re-execution.
  IoStats production_io;
  /// The committed block payloads, shared with the DFS (see file header).
  std::vector<dfs::BlockData> blocks;
  /// Tier to restore onto: kMemory normally, kDisk once the file spilled.
  bool on_memory_tier = true;
};

class LineageGraph {
 public:
  /// Registers (or replaces) the record for a produced partition. Computes
  /// depth from the currently tracked inputs.
  void record(const std::string& path, LineageRecord rec);
  void erase(const std::string& path);
  bool tracked(const std::string& path) const;
  /// Copy of the record; throws if untracked.
  LineageRecord get(const std::string& path) const;
  /// Flips the restore tier after a spill.
  void mark_spilled(const std::string& path);

  std::size_t size() const;

  /// Partitions to rebuild among `lost`, grouped into ascending-depth waves
  /// (paths sorted within each wave). Untracked paths are dropped — they
  /// are the replicated disk tier's problem.
  std::vector<std::vector<std::string>> plan_waves(
      const std::vector<std::string>& lost) const;

 private:
  std::map<std::string, LineageRecord> records_;
};

}  // namespace mri::engine

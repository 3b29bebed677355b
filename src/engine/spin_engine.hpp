// The SPIN-style in-memory execution engine (ISSUE 7 tentpole).
//
// Wraps a Dfs + ChaosEngine pair with:
//  * a BlockCache over the DFS memory tier — per-node capacity, LRU
//    eviction at job boundaries, evictions spilled to local disk through
//    Dfs::spill_to_disk (charged as bytes_spilled, satellite-1 consistent);
//  * a LineageGraph — every memory-tier commit records its producing job,
//    the producer task's read-set and production cost, so a chaos node kill
//    REBUILDS the lost partitions by (simulated) re-execution in
//    ascending-depth waves instead of surfacing UnrecoverableBlock;
//  * pipeline fusion accounting — a consumer whose input is cache-resident
//    on its own node reads at memory bandwidth with no DFS disk/network
//    charge (the Dfs reader's mem-local path), which is the simulated
//    equivalent of eliding the inter-job materialization.
//
// Wiring: construction installs the engine as the Dfs's TierListener and —
// when a chaos engine is given — replaces the DFS kill handler with one
// that runs DFS repair first, then lineage recovery. Destruction restores
// both, so the engine can be a scoped RAII member of one inversion.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dfs/dfs.hpp"
#include "engine/block_cache.hpp"
#include "engine/lineage.hpp"
#include "sim/chaos.hpp"
#include "sim/cost_model.hpp"
#include "sim/metrics.hpp"

namespace mri::engine {

/// A cache eviction spilled to disk, stamped with the 1-based ordinal of
/// the job whose admission triggered it (spills happen at job boundaries,
/// so the report maps the ordinal to that job's start time).
struct SpillEvent {
  std::uint64_t job_ordinal = 0;
  std::string path;
  std::uint64_t bytes = 0;
};

/// The engine's totals (sim/layer_stats.hpp, which the run report embeds)
/// plus what only the engine's own clock knows: spills by job ordinal.
struct EngineStats : EngineTotals {
  std::vector<SpillEvent> spills;
};

class SpinEngine final : public dfs::TierListener {
 public:
  /// `chaos` and `metrics` may be null; `fs` and `model` may not. The
  /// engine must outlive neither — it deregisters itself on destruction.
  SpinEngine(dfs::Dfs* fs, ChaosEngine* chaos, const CostModel* model,
             MetricsRegistry* metrics, std::uint64_t cache_capacity_bytes);
  ~SpinEngine() override;
  SpinEngine(const SpinEngine&) = delete;
  SpinEngine& operator=(const SpinEngine&) = delete;

  /// Job-boundary hook, called by JobRunner::execute before the job's tasks
  /// run (on the thread that places the graph's jobs, one at a time).
  /// Advances the cache epoch and performs the LRU eviction pass; returns
  /// the spill accounting so the runner can charge it to the admitting
  /// job's attempt timing.
  IoStats begin_job(const std::string& name);

  /// Absolute simulated time until which lineage recovery occupies the
  /// cluster; a job starting earlier stalls until this (JobRunner adds the
  /// difference as lineage_stall_seconds).
  double recovery_available_at() const;

  EngineStats stats() const;

  // -- dfs::TierListener ----------------------------------------------------
  void on_commit(const std::string& path, dfs::StorageTier tier,
                 std::uint64_t size, int node,
                 const std::vector<dfs::BlockData>& blocks,
                 const IoStats* task_io) override;
  void on_open(const std::string& path, dfs::StorageTier tier,
               std::uint64_t size) override;
  void on_remove(const std::string& path) override;
  /// Integrity repair of a corrupted memory-tier partition: the single
  /// in-memory copy has no replica or parity, so the producing task re-runs
  /// from lineage. Accounting-only — the DFS serves corruption as an
  /// overlay over the pristine payload, so clearing the mark (done by the
  /// caller) restores the bytes; this charges the re-run's IoStats and
  /// returns its simulated duration. No restore_file: recommitting would
  /// re-place blocks mid-read.
  double on_corrupt(const std::string& path, double at) override;

 private:
  NodeKillOutcome on_kill(int node, double at);

  dfs::Dfs* fs_;
  ChaosEngine* chaos_;
  const CostModel* model_;
  MetricsRegistry* metrics_;
  BlockCache cache_;

  mutable std::mutex mu_;  // guards everything below
  LineageGraph lineage_;
  std::uint64_t job_ordinal_ = 0;  // 1-based once the first job begins
  std::string job_name_;
  double recovery_available_at_ = 0.0;
  EngineStats ext_;  // non-cache stats (cache_ keeps its own)
};

}  // namespace mri::engine

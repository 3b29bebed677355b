// The records each layer counts into while a run executes.
//
// The DFS counts integrity, hot-cache and stripe-reconstruction records,
// the SPIN engine its block cache and lineage recomputes, the scheduler the
// network totals and the chaos engine the recovery totals. Each record is
// declared once, here in sim/, which dfs/, engine/, mapreduce/ and the run
// report all include: the layer that counts a record fills it, RunReport
// (sim/run_report.hpp) embeds the same record, and mr::build_run_report
// assigns whole records rather than copying fields one by one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mri {

/// One DFS integrity repair, for the report's integrity lane. kind is "copy"
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

/// One background scrubber pass of the DFS over its namespace.
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

/// Namenode hot-block cache occupancy and hit totals (all zero when the
/// cache is disabled).
struct HotCacheStats {
  std::uint64_t capacity_bytes = 0;
  std::uint64_t resident_bytes = 0;
  int resident_files = 0;
  std::uint64_t hits = 0;
  std::uint64_t hit_bytes = 0;
};

/// One erasure-coded reconstruction burst: a node death that rebuilt lost
/// stripe cells from k survivors (the report's storage lane).
struct StorageReconstructionEvent {
  double at = 0.0;  // simulated time of the node kill
  int node = -1;    // the node that died
  int cells = 0;    // stripe cells rebuilt
  std::uint64_t bytes = 0;   // bytes of rebuilt cell payload
  double seconds = 0.0;      // simulated duration of the whole repair
};

/// The SPIN engine's per-node block cache over the DFS memory tier.
struct CacheStats {
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Touches of resident entries (the consumer-side cache hits that make
  /// pipeline fusion between jobs possible).
  std::uint64_t hits = 0;
  std::uint64_t resident_bytes = 0;
  /// High-water mark of total resident bytes across all nodes. Mid-job
  /// overshoot is allowed (eviction only runs at job boundaries), so the
  /// peak can exceed nodes x capacity transiently.
  std::uint64_t peak_resident_bytes = 0;
  std::uint64_t spilled_bytes = 0;
};

/// One memory-tier partition the SPIN engine rebuilt from lineage, on the
/// absolute simulated timeline.
struct RecomputeEvent {
  double at = 0.0;        // when this partition's wave starts
  double duration = 0.0;  // the producing task's simulated re-run time
  int wave = 0;           // 0-based ascending-depth wave index
  std::string path;
  std::uint64_t bytes = 0;
};

/// The SPIN engine's block-cache and lineage-recovery totals.
struct EngineTotals {
  CacheStats cache;
  std::uint64_t tracked_partitions = 0;  // lineage records live at end of run
  int partitions_recomputed = 0;
  int lineage_waves = 0;
  double recompute_seconds = 0.0;
  std::uint64_t recomputed_bytes = 0;
  std::vector<RecomputeEvent> recomputes;
};

/// The scheduler's flow-level network totals: recorded DFS/shuffle transfer
/// bytes split by distance travelled, and task attempts dispatched inside
/// (vs outside) the rack of their task's home node. Racked topologies only;
/// zero on flat runs.
struct NetworkTotals {
  std::uint64_t node_local_bytes = 0;
  std::uint64_t rack_local_bytes = 0;
  std::uint64_t cross_rack_bytes = 0;
  int rack_local_attempts = 0;
  int cross_rack_attempts = 0;

  NetworkTotals& operator+=(const NetworkTotals& o) {
    node_local_bytes += o.node_local_bytes;
    rack_local_bytes += o.rack_local_bytes;
    cross_rack_bytes += o.cross_rack_bytes;
    rack_local_attempts += o.rack_local_attempts;
    cross_rack_attempts += o.cross_rack_attempts;
    return *this;
  }
};

/// Recovery totals the chaos engine itself observed while applying events,
/// plus service-level retry accounting fed in via note_*(). Task-level
/// recompute totals live in JobResult (the runtime owns that side).
struct RecoveryStats {
  int nodes_killed = 0;
  int nodes_degraded = 0;
  int read_errors_injected = 0;
  /// kCorruptBlock events applied (injected silent corruptions; whether
  /// they were *detected* is the integrity layer's story, not chaos's).
  int blocks_corrupted = 0;
  std::uint64_t re_replicated_bytes = 0;
  int re_replicated_blocks = 0;
  int blocks_lost = 0;  // blocks with every replica gone
  /// Simulated seconds of background repair, summed over the kill
  /// outcomes; informational, the pipeline does not block on it, matching
  /// HDFS background re-replication.
  double re_replication_seconds = 0.0;
  int request_retries = 0;
  int requests_unrecoverable = 0;
  /// Lineage-recovery aggregates across all kills (SPIN engine only; all
  /// zero under the replication-based recovery path).
  int partitions_recomputed = 0;
  int lineage_waves = 0;
  double lineage_recompute_seconds = 0.0;
  std::uint64_t lineage_recomputed_bytes = 0;
  /// Erasure-coded cell reconstructions across all kills (zero on pure
  /// replication runs).
  int ec_cells_reconstructed = 0;
  std::uint64_t ec_reconstructed_bytes = 0;
};

}  // namespace mri

// Options for the MapReduce matrix inverter.
#pragma once

#include <cstdint>
#include <string>

#include "dfs/dfs.hpp"
#include "matrix/matrix.hpp"
#include "sim/io_stats.hpp"

namespace mri::core {

/// Execution engine for the inversion pipeline.
///  * kHadoop: the paper's Hadoop 1.x model — every intermediate
///    materializes on the replicated disk DFS between jobs.
///  * kSpin: the SPIN-style in-memory engine (the §8 "implement on Spark"
///    extension, first-class): intermediates live in a per-node block cache
///    on the memory tier, consumers read cache-resident inputs at memory
///    bandwidth (pipeline fusion), eviction spills LRU entries to local
///    disk, and node kills recover by lineage recomputation instead of
///    replication.
enum class EngineKind { kHadoop, kSpin };

/// How a distributed multiply is scheduled across jobs.
///  * kWrap: the paper's §6.2 block wrap — one job, an f1 x f2 reducer grid,
///    each reducer reading whole (n/f1 + n/f2)-sized operand slabs.
///  * kMultiRound: replication-parameterized multi-round multiplication (the
///    space-round tradeoff of arXiv 1111.2228 / 1408.2858): the k dimension
///    is cut into m0 segments and each reduce task accumulates r segments
///    per round onto a carry tile, over ceil(m0 / r) chained jobs. Smaller r
///    means less operand data per task per round (less memory) but more
///    rounds, more job-launch overhead and extra carry-tile shuffle bytes;
///    r = m0 degenerates to the wrap's single round.
enum class MultiplyStrategyKind { kWrap, kMultiRound };

struct MultiplyStrategyOptions {
  MultiplyStrategyKind strategy = MultiplyStrategyKind::kWrap;
  /// kMultiRound only: replication factor r — how many k-segments one
  /// reduce task holds in memory per round (clamped to [1, m0] at plan
  /// time). Ignored by kWrap.
  int replication = 1;
};

struct InversionOptions {
  /// Largest block order LU-decomposed on the master node (the paper's nb;
  /// 3200 in its EC2 experiments, chosen so the master's LU time roughly
  /// equals the MapReduce job launch time).
  Index nb = 256;

  /// §6.1: keep every intermediate result (L1, L2', U2, ...) in its own DFS
  /// file. When false, the master serially combines the factor files after
  /// each job, which costs serial read+write time (the paper measured ~1.3x
  /// slowdowns at 64 nodes without the optimization).
  bool separate_intermediate_files = true;

  /// §6.2: block-wrap the two distributed multiplications (B = A4 - L2'·U2
  /// and A⁻¹ = U⁻¹·L⁻¹) over an f1 x f2 grid, cutting total multiply reads
  /// from (m0+1)n² to (f1+f2)n². When false, each reducer computes a row
  /// band and reads one operand in full.
  bool block_wrap = true;

  /// §6.3: store every upper-triangular factor transposed so the multiply
  /// kernels stream rows instead of striding columns. When false, files
  /// hold U untransposed and kernels pay the column-access memory penalty.
  bool transposed_u = true;

  /// Execution engine (see EngineKind). kSpin keeps every intermediate
  /// result — partition pieces, L2'/U2 stripes, B tiles, leaf factors,
  /// L⁻¹/U⁻¹ slices — in the unreplicated in-memory tier; the input matrix
  /// and the final inverse stay on disk.
  EngineKind engine = EngineKind::kHadoop;

  /// BlockCache capacity per node for the kSpin engine; 0 = unlimited.
  std::uint64_t cache_capacity_bytes = 256ull << 20;

  /// Tier for intermediate files, derived from the engine selection.
  dfs::StorageTier intermediate_tier() const {
    return engine == EngineKind::kSpin ? dfs::StorageTier::kMemory
                                       : dfs::StorageTier::kDisk;
  }

  /// Run the final §5.4 stage as three overlap-eligible jobs on the DAG
  /// executor — the independent L⁻¹ and U⁻¹ triangular inversions as two
  /// concurrent map-only jobs feeding the final multiply job — instead of
  /// one monolithic job. Same arithmetic and I/O; the two inversions share
  /// the cluster's slots, so the makespan drops below the serial sum
  /// (Hadoop 1.x, which the paper ran on, could not express this; DAG
  /// engines like Spark get much of their win here). Off by default to
  /// reproduce the paper's one-job-at-a-time timeline exactly.
  bool overlap_final_stage = false;

  /// Scheduling of the standalone distributed multiply (solve()'s
  /// X = A⁻¹·B): the §6.2 block wrap by default, or the multi-round
  /// space-saving scheme (see MultiplyStrategyKind).
  MultiplyStrategyOptions multiply;

  /// DFS working directory (the paper's "Root"). The inverter removes
  /// every intermediate it wrote here once the run completes; the input
  /// and the MapInput control files stay.
  std::string work_dir = "/Root";
};

/// `io` with its flops scaled by `factor`: the §6.3 column-access penalty
/// (CostModel::column_stride_penalty) a kernel pays on untransposed U.
inline IoStats penalized(IoStats io, double factor) {
  io.mults = static_cast<std::uint64_t>(static_cast<double>(io.mults) * factor);
  io.adds = static_cast<std::uint64_t>(static_cast<double>(io.adds) * factor);
  return io;
}

}  // namespace mri::core

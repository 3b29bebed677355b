// Distributed matrix multiplication as MapReduce jobs.
//
// The paper's §6.2 block-wrap analysis is stated for matrix multiplication
// in general; this job packages it as a standalone library operation (the
// kind of composable building block SystemML offers, §3): the input
// operands live in the DFS as TileSets, the reducers compute the f1 x f2
// grid blocks of C = A·B reading (n/f1 + n/f2)-sized slabs each, and the
// result is again a TileSet. Mappers only fan out the control records; the
// operands were written by whoever produced them (no map-side data motion),
// matching how B = A4 − L2'·U2 is computed inside the inversion pipeline.
//
// The HOW of the multiply is pluggable (see core/multiply_strategy.hpp):
// the wrap strategy runs the single job above, the multi-round strategy
// chains ceil(m0/r) jobs that each accumulate r k-segments onto carry
// tiles — the replication/rounds tradeoff of arXiv 1111.2228 / 1408.2858.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/options.hpp"
#include "core/tile_set.hpp"
#include "mapreduce/job_graph.hpp"
#include "matrix/layout.hpp"

namespace mri::core {

struct MultiplyJobContext {
  TileSet a;  // r x k
  TileSet b;  // k x c
  std::string dir;  // writes MUL/C.<t> (multi-round carries: MULR/C.<t>.<i>)
  int m0 = 1;
  int grid_rows = 1, grid_cols = 1;
  dfs::StorageTier tier = dfs::StorageTier::kDisk;
  TileSet c_out;  // planned output geometry (r x c)

  // Strategy schedule (filled by the strategy's plan step). Wrap keeps the
  // defaults: one round over one k-segment.
  MultiplyStrategyOptions strategy;
  int segments = 1;  // κ: number of k-segments the inner dimension is cut into
  int rounds = 1;    // ceil(segments / replication)
};

using MultiplyJobContextPtr = std::shared_ptr<const MultiplyJobContext>;

/// What a multiply strategy decided to run: exposed so benches/tests can
/// check the space-round tradeoff without re-deriving the schedule.
struct MultiplyPlan {
  int strategy_jobs = 1;  // jobs submitted for the multiply (wrap: 1)
  int rounds = 1;         // kMultiRound: ceil(segments / replication)
  int segments = 1;       // kMultiRound: κ (k-segment count)
  int replication = 1;    // effective r after clamping to [1, segments]
  int grid_rows = 1, grid_cols = 1;
  /// Largest number of operand + carry + output bytes any one reduce task
  /// holds at once (the per-task space side of the tradeoff).
  std::uint64_t peak_task_bytes = 0;
};

/// Plans the reducer grid (block wrap over m0) and the output TileSet.
void plan_multiply_job(MultiplyJobContext* ctx);

mr::JobSpec make_multiply_job(MultiplyJobContextPtr ctx,
                              std::vector<std::string> control_files,
                              std::string job_name);

/// One round of the multi-round strategy: each reduce task reads the carry
/// tile written by the previous round (round > 0), accumulates its next r
/// k-segment products onto it, and writes the result — to MULR/C.<t>.<round>
/// for inner rounds, to the final MUL/C.<t> on the last round. Requires a
/// context planned by the multi-round strategy (segments/rounds set, A
/// tiled as grid_rows x segments blocks and B as segments x grid_cols).
mr::JobSpec make_multiply_round_job(MultiplyJobContextPtr ctx, int round,
                                    std::vector<std::string> control_files,
                                    std::string job_name);

/// Convenience facade: runs C = A·B on the cluster behind `graph`, with
/// `a` and `b` ingested from memory, and returns C. The schedule — one
/// block-wrap job or a chain of multi-round jobs — comes from `strategy`.
/// `after` (optional) makes the first job depend on an earlier submission —
/// e.g. solve() chains its multiply onto the inversion's final job.
/// `plan_out` (optional) receives the executed schedule. (Callers composing
/// with existing DFS data should build job specs directly from TileSets.)
Matrix mapreduce_multiply(mr::JobGraph* graph, dfs::Dfs* fs, int m0,
                          const Matrix& a, const Matrix& b,
                          const std::string& work_dir,
                          std::vector<std::string> control_files,
                          const MultiplyStrategyOptions& strategy = {},
                          mr::JobHandle after = {},
                          MultiplyPlan* plan_out = nullptr);

}  // namespace mri::core

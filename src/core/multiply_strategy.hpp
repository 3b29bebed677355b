// Pluggable scheduling strategies for the distributed multiply.
//
// A MultiplyStrategy owns the three decisions that differ between multiply
// schemes: how the operands are laid out in the DFS (ingest), what reducer
// grid / round schedule to run (plan), and which jobs to submit (submit).
// Two strategies ship:
//
//  * WrapStrategy — the paper's §6.2 block wrap. A is ingested as f1 row
//    stripes and B as f2 column stripes; one job's f1 x f2 reducers each
//    read an (n/f1 + n/f2)-sized slab pair and write their C tile.
//
//  * MultiRoundStrategy — the replication-parameterized multi-round scheme
//    of arXiv 1111.2228 / 1408.2858. The inner dimension is cut into
//    κ = m0 segments; A is ingested as f1 x κ blocks and B as κ x f2
//    blocks, and R = ceil(κ/r) chained jobs each accumulate r segment
//    products onto a per-task carry tile. Per-task memory scales with r
//    while rounds (and carry shuffle bytes, 2(R-1) extra C-sized passes)
//    scale with κ/r — the space-round tradeoff. r = κ degenerates to a
//    single wrap-like round.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/multiply_job.hpp"

namespace mri::core {

class MultiplyStrategy {
 public:
  virtual ~MultiplyStrategy() = default;

  /// Strategy name as spelled on the CLI ("wrap", "multiround").
  virtual const char* name() const = 0;

  /// Writes `a` and `b` into the DFS under <work_dir>/MULIN in the layout
  /// the strategy's reducers read (charged to the master by the caller).
  virtual void ingest(dfs::Dfs* fs, const Matrix& a, const Matrix& b,
                      const std::string& work_dir,
                      MultiplyJobContext* ctx) const = 0;

  /// Fills the reducer grid, round schedule and output TileSet on `ctx`
  /// and returns the schedule summary.
  virtual MultiplyPlan plan(MultiplyJobContext* ctx) const = 0;

  /// Submits the strategy's job(s) — chained in order, the first depending
  /// on `after` — and returns the handle of the last one.
  virtual mr::JobHandle submit(mr::JobGraph* graph, MultiplyJobContextPtr ctx,
                               const std::vector<std::string>& control_files,
                               mr::JobHandle after) const = 0;
};

const char* multiply_strategy_name(MultiplyStrategyKind kind);

/// Parses a CLI spelling ("wrap" | "multiround"); returns false on unknown
/// names without touching `*out`.
bool parse_multiply_strategy(const std::string& name,
                             MultiplyStrategyKind* out);

std::unique_ptr<MultiplyStrategy> make_multiply_strategy(
    MultiplyStrategyKind kind);

}  // namespace mri::core

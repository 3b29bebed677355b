// The recursive block-LU driver (Algorithm 2) as a pipeline of MapReduce
// jobs: leaves are LU-decomposed on the master node; each internal node is
// one MapReduce job; the second child's input B is "partitioned" by
// metadata only (a TileSet window over the reducers' OUT tiles, §5.2).
#pragma once

#include <string>
#include <vector>

#include "core/lu_tree.hpp"
#include "core/options.hpp"
#include "core/partition_layout.hpp"
#include "mapreduce/job_graph.hpp"

namespace mri::core {

class LuPipeline {
 public:
  /// `after` (optional) is the job every LU job transitively depends on —
  /// the partition job that materialized the spine. The LU jobs themselves
  /// are submitted as an explicit dependency chain: each one's input window
  /// covers the previous job's OUT tiles, so the chain order is the true
  /// data-dependency order (Algorithm 2 is inherently sequential).
  LuPipeline(mr::JobGraph* graph, dfs::Dfs* fs, InversionOptions opts,
             int m0, double layout_penalty,
             std::vector<std::string> control_files,
             mr::JobHandle after = {});

  /// The last LU job submitted so far; dependency anchor for the final
  /// inversion stage (invalid before the first job — depth-0 plans run no
  /// LU job at all).
  mr::JobHandle last_job() const { return last_job_; }

  /// Factors the left spine materialized by the partition job.
  LuNodePtr factor_partitioned(const PartitionGeometry& geom);

  /// Factors an arbitrary tiled input region (used for the B subtrees, and
  /// directly in tests).
  LuNodePtr factor_tiles(const TileSet& input, int depth_remaining,
                         const std::string& dir);

 private:
  LuNodePtr factor_spine(const PartitionGeometry& geom, int level);
  LuNodePtr factor_leaf(const TileSet& input, const std::string& dir);
  LuNodePtr run_internal(Index n, Index h, TileSet a2, TileSet a3, TileSet a4,
                         LuNodePtr first, int child_depth,
                         const std::string& dir);
  void charge_combine_penalty(Index n, Index h);

  mr::JobGraph* graph_;
  dfs::Dfs* fs_;
  InversionOptions opts_;
  int m0_;
  double layout_penalty_;
  std::vector<std::string> control_files_;
  mr::JobHandle last_job_;
};

}  // namespace mri::core

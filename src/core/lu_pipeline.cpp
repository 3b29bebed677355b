#include "core/lu_pipeline.hpp"

#include "core/factor_io.hpp"
#include "core/lu_job.hpp"
#include "dfs/path.hpp"
#include "linalg/lu.hpp"
#include "matrix/ops.hpp"

namespace mri::core {

LuPipeline::LuPipeline(mr::JobGraph* graph, dfs::Dfs* fs,
                       InversionOptions opts, int m0, double layout_penalty,
                       std::vector<std::string> control_files,
                       mr::JobHandle after)
    : graph_(graph),
      fs_(fs),
      opts_(std::move(opts)),
      m0_(m0),
      layout_penalty_(layout_penalty),
      control_files_(std::move(control_files)),
      last_job_(after) {
  MRI_REQUIRE(graph != nullptr && fs != nullptr, "null graph/fs");
  MRI_REQUIRE(m0 >= 1, "need at least one node");
}

LuNodePtr LuPipeline::factor_partitioned(const PartitionGeometry& geom) {
  return factor_spine(geom, 0);
}

LuNodePtr LuPipeline::factor_spine(const PartitionGeometry& geom, int level) {
  if (level == geom.depth) {
    return factor_leaf(region_tiles(geom, geom.depth, Region::kLeaf),
                       geom.leaf_dir);
  }
  const LevelGeometry& lv = geom.levels[static_cast<std::size_t>(level)];
  LuNodePtr first = factor_spine(geom, level + 1);
  return run_internal(lv.parent_n, lv.h,
                      region_tiles(geom, level + 1, Region::kA2),
                      region_tiles(geom, level + 1, Region::kA3),
                      region_tiles(geom, level + 1, Region::kA4),
                      std::move(first), geom.depth - level - 1, lv.dir);
}

LuNodePtr LuPipeline::factor_tiles(const TileSet& input, int depth_remaining,
                                   const std::string& dir) {
  MRI_REQUIRE(input.rows() == input.cols(), "factor_tiles needs a square region");
  if (depth_remaining == 0) return factor_leaf(input, dir);
  const Index n = input.rows();
  const Index h = split_point(n);
  LuNodePtr first =
      factor_tiles(input.window(0, h, 0, h), depth_remaining - 1,
                   dfs::join(dir, "A1"));
  return run_internal(n, h, input.window(0, h, h, n),
                      input.window(h, n, 0, h), input.window(h, n, h, n),
                      std::move(first), depth_remaining - 1, dir);
}

LuNodePtr LuPipeline::factor_leaf(const TileSet& input, const std::string& dir) {
  // Algorithm 1 on the master node (§4.2: "we decompose such small matrices
  // in the MapReduce master node").
  IoStats master_io;
  const Matrix a = input.read_all(*fs_, &master_io);
  LuResult lu = lu_decompose(a);
  auto node = std::make_unique<LuNode>();
  node->n = a.rows();
  node->leaf = true;
  node->l_path = dfs::join(dir, "l.bin");
  node->ut_path = dfs::join(dir, "ut.bin");
  node->perm_path = dfs::join(dir, "p.bin");
  write_lower_packed(*fs_, node->l_path, lu.unit_lower(), /*unit_diag=*/true,
                     &master_io, opts_.intermediate_tier());
  write_lower_packed(*fs_, node->ut_path, transpose(lu.upper()),
                     /*unit_diag=*/false, &master_io,
                     opts_.intermediate_tier());
  write_permutation(*fs_, node->perm_path, lu.perm, &master_io,
                    opts_.intermediate_tier());
  node->perm = std::move(lu.perm);
  master_io += lu_cost(node->n);
  graph_->add_master_work(master_io);
  return node;
}

LuNodePtr LuPipeline::run_internal(Index n, Index h, TileSet a2, TileSet a3,
                                   TileSet a4, LuNodePtr first,
                                   int child_depth, const std::string& dir) {
  auto ctx = std::make_shared<LuJobContext>();
  ctx->n = n;
  ctx->h = h;
  ctx->first = first.get();
  ctx->a2 = std::move(a2);
  ctx->a3 = std::move(a3);
  ctx->a4 = std::move(a4);
  ctx->opts = opts_;
  ctx->dir = dir;
  ctx->m0 = m0_;
  if (m0_ == 1) {
    ctx->l2_workers = 1;
    ctx->u2_workers = 1;
  } else {
    ctx->l2_workers = (m0_ + 1) / 2;
    ctx->u2_workers = m0_ - ctx->l2_workers;
  }
  ctx->layout_penalty = layout_penalty_;
  plan_lu_job_outputs(ctx.get());

  // Submit with an explicit dependency on the previous LU job (or the
  // partition job): the chain is the data-dependency order. The wait keeps
  // the master's recursion lockstep — B's geometry comes from this job's
  // planned outputs, and the next leaf reads tiles this job wrote.
  last_job_ = graph_->submit(make_lu_job(ctx, control_files_, "lu:" + dir),
                             {last_job_});
  graph_->wait(last_job_);

  // The master "partitions" B by metadata only (§5.2) and recurses.
  LuNodePtr second =
      factor_tiles(ctx->b_out, child_depth, dfs::join(dir, "B"));

  auto node = std::make_unique<LuNode>();
  node->n = n;
  node->h = h;
  node->leaf = false;
  node->l2 = ctx->l2_out;
  node->u2 = ctx->u2_out;
  node->u2_transposed = opts_.transposed_u;
  node->perm = Permutation::concat(first->perm, second->perm);
  node->first = std::move(first);
  node->second = std::move(second);

  if (!opts_.separate_intermediate_files) charge_combine_penalty(n, h);
  return node;
}

void LuPipeline::charge_combine_penalty(Index n, Index h) {
  // §6.1 ablation: without separate intermediate files the master serially
  // reads the factor files produced so far at this node (L1, L2', U1, U2 —
  // everything except the not-yet-factored B block) and rewrites them as
  // combined l/u files. Serial time on one node; no parallelism.
  const std::uint64_t elements =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) -
      static_cast<std::uint64_t>(n - h) * static_cast<std::uint64_t>(n - h);
  IoStats io;
  io.bytes_read = elements * sizeof(double);
  io.bytes_written = elements * sizeof(double);
  io.bytes_transferred = io.bytes_read;
  graph_->add_master_work(io);
}

}  // namespace mri::core

#include "core/multiply_job.hpp"

#include <algorithm>

#include "dfs/path.hpp"
#include "linalg/kernels/kernel.hpp"
#include "matrix/dfs_io.hpp"
#include "matrix/ops.hpp"

namespace mri::core {

namespace {

class MultiplyMapper : public mr::Mapper {
 public:
  void map(std::int64_t key, const std::string& value,
           mr::TaskContext& task) override {
    // Control fan-out only (the operands are already in the DFS).
    task.emit(key, value);
  }
};

class MultiplyReducer : public mr::Reducer {
 public:
  explicit MultiplyReducer(MultiplyJobContextPtr ctx) : ctx_(std::move(ctx)) {}

  void reduce(std::int64_t key, const std::vector<std::string>& /*values*/,
              mr::TaskContext& task) override {
    if (key != task.task_index()) return;
    const MultiplyJobContext& c = *ctx_;
    const int t = task.task_index();
    const RowRange rows = stripe(c.a.rows(), c.grid_rows, t / c.grid_cols);
    const RowRange cols = stripe(c.b.cols(), c.grid_cols, t % c.grid_cols);
    if (rows.count() == 0 || cols.count() == 0) return;

    const Matrix a_rows =
        c.a.read_block(task.fs(), rows.begin, rows.end, 0, c.a.cols(),
                       &task.io());
    const Matrix b_cols =
        c.b.read_block(task.fs(), 0, c.b.rows(), cols.begin, cols.end,
                       &task.io());
    const Matrix block = matmul(a_rows, b_cols);
    task.add_flops(
        kernels::kernel_cost(rows.count(), c.a.cols(), cols.count()));
    write_matrix(task.fs(), dfs::join(c.dir, "MUL/C." + std::to_string(t)),
                 block, &task.io(), c.tier);
  }

 private:
  MultiplyJobContextPtr ctx_;
};

std::string carry_path(const MultiplyJobContext& c, int t, int round) {
  return dfs::join(c.dir,
                   "MULR/C." + std::to_string(t) + "." + std::to_string(round));
}

class MultiRoundReducer : public mr::Reducer {
 public:
  MultiRoundReducer(MultiplyJobContextPtr ctx, int round)
      : ctx_(std::move(ctx)), round_(round) {}

  void reduce(std::int64_t key, const std::vector<std::string>& /*values*/,
              mr::TaskContext& task) override {
    if (key != task.task_index()) return;
    const MultiplyJobContext& c = *ctx_;
    const int t = task.task_index();
    const RowRange rows = stripe(c.a.rows(), c.grid_rows, t / c.grid_cols);
    const RowRange cols = stripe(c.b.cols(), c.grid_cols, t % c.grid_cols);
    if (rows.count() == 0 || cols.count() == 0) return;

    const int r = std::max(1, c.strategy.replication);
    const int s0 = round_ * r;
    const int s1 = std::min(c.segments, s0 + r);

    // The carry tile is the partial sum over segments [0, s0) written by the
    // previous round; round 0 starts from zero.
    Matrix acc = round_ == 0
                     ? Matrix(rows.count(), cols.count())
                     : read_matrix(task.fs(), carry_path(c, t, round_ - 1),
                                   &task.io());
    for (int s = s0; s < s1; ++s) {
      const RowRange seg = stripe(c.a.cols(), c.segments, s);
      if (seg.count() == 0) continue;
      const Matrix a_blk = c.a.read_block(task.fs(), rows.begin, rows.end,
                                          seg.begin, seg.end, &task.io());
      const Matrix b_blk = c.b.read_block(task.fs(), seg.begin, seg.end,
                                          cols.begin, cols.end, &task.io());
      matmul_into(a_blk, b_blk, &acc, kernels::GemmMode::kAccumulate);
      task.add_flops(
          kernels::kernel_cost(rows.count(), seg.count(), cols.count()));
    }

    const bool last = round_ == c.rounds - 1;
    const std::string out = last
                                ? dfs::join(c.dir, "MUL/C." + std::to_string(t))
                                : carry_path(c, t, round_);
    write_matrix(task.fs(), out, acc, &task.io(), c.tier);
  }

 private:
  MultiplyJobContextPtr ctx_;
  int round_;
};

}  // namespace

void plan_multiply_job(MultiplyJobContext* ctx) {
  MRI_REQUIRE(ctx != nullptr, "null multiply context");
  MRI_REQUIRE(ctx->a.cols() == ctx->b.rows(),
              "multiply shape mismatch: " << ctx->a.rows() << "x"
                                          << ctx->a.cols() << " · "
                                          << ctx->b.rows() << "x"
                                          << ctx->b.cols());
  const BlockWrapFactors f = block_wrap_factors(ctx->m0);
  ctx->grid_rows = f.f1;
  ctx->grid_cols = f.f2;

  std::vector<Tile> tiles;
  for (int t = 0; t < ctx->grid_rows * ctx->grid_cols; ++t) {
    const RowRange rows =
        stripe(ctx->a.rows(), ctx->grid_rows, t / ctx->grid_cols);
    const RowRange cols =
        stripe(ctx->b.cols(), ctx->grid_cols, t % ctx->grid_cols);
    if (rows.count() == 0 || cols.count() == 0) continue;
    Tile tile;
    tile.path = dfs::join(ctx->dir, "MUL/C." + std::to_string(t));
    tile.r0 = rows.begin;
    tile.r1 = rows.end;
    tile.c0 = cols.begin;
    tile.c1 = cols.end;
    tiles.push_back(std::move(tile));
  }
  ctx->c_out = TileSet(ctx->a.rows(), ctx->b.cols(), std::move(tiles));
}

mr::JobSpec make_multiply_job(MultiplyJobContextPtr ctx,
                              std::vector<std::string> control_files,
                              std::string job_name) {
  MRI_REQUIRE(ctx != nullptr, "null multiply context");
  mr::JobSpec spec;
  spec.name = std::move(job_name);
  spec.input_files = std::move(control_files);
  spec.num_reduce_tasks = ctx->grid_rows * ctx->grid_cols;
  spec.mapper_factory = [] { return std::make_unique<MultiplyMapper>(); };
  spec.reducer_factory = [ctx] {
    return std::make_unique<MultiplyReducer>(ctx);
  };
  return spec;
}

mr::JobSpec make_multiply_round_job(MultiplyJobContextPtr ctx, int round,
                                    std::vector<std::string> control_files,
                                    std::string job_name) {
  MRI_REQUIRE(ctx != nullptr, "null multiply context");
  MRI_REQUIRE(round >= 0 && round < ctx->rounds,
              "round " << round << " out of range [0, " << ctx->rounds << ")");
  mr::JobSpec spec;
  spec.name = std::move(job_name);
  spec.input_files = std::move(control_files);
  spec.num_reduce_tasks = ctx->grid_rows * ctx->grid_cols;
  spec.mapper_factory = [] { return std::make_unique<MultiplyMapper>(); };
  spec.reducer_factory = [ctx, round] {
    return std::make_unique<MultiRoundReducer>(ctx, round);
  };
  return spec;
}

}  // namespace mri::core

#include "core/lu_job.hpp"

#include "core/assemble.hpp"
#include "core/plan.hpp"
#include "dfs/path.hpp"
#include "linalg/triangular.hpp"
#include "matrix/dfs_io.hpp"
#include "matrix/ops.hpp"

namespace mri::core {

namespace {

class LuMapper : public mr::Mapper {
 public:
  explicit LuMapper(LuJobContextPtr ctx) : ctx_(std::move(ctx)) {}

  void map(std::int64_t key, const std::string& value,
           mr::TaskContext& task) override {
    // Worker id from the control file (§5.1).
    const int j =
        control_worker_id(value, static_cast<int>(key), task.input_path());
    if (ctx_->m0 == 1) {
      compute_l2_stripe(0, task);
      compute_u2_stripe(0, task);
    } else if (j < ctx_->l2_workers) {
      compute_l2_stripe(j, task);
    } else {
      compute_u2_stripe(j - ctx_->l2_workers, task);
    }
    task.emit(key, std::to_string(j));  // the paper's (j, j) control pair
  }

 private:
  void compute_l2_stripe(int s, mr::TaskContext& task) {
    const LuJobContext& c = *ctx_;
    const RowRange rows = stripe(c.n - c.h, c.l2_workers, s);
    if (rows.count() == 0) return;
    // L2' rows solve  L2'·U1 = A3  row-independently (Eq. 6), as the left
    // solve  U1ᵀ·L2'ᵀ = A3ᵀ  against the stored U1ᵀ; L2'ᵀ is written
    // transposed, so the file holds L2' with no transpose back.
    const Matrix u1t = assemble_ut(task.fs(), *c.first, &task.io());
    const Matrix a3s =
        c.a3.read_block(task.fs(), rows.begin, rows.end, 0, c.h, &task.io());
    const Matrix l2st = solve_lower(u1t, transpose(a3s));
    IoStats flops = triangular_solve_cost(c.h, rows.count());
    if (!c.opts.transposed_u) flops = penalized(flops, c.layout_penalty);
    task.add_flops(flops);
    write_matrix_transposed(task.fs(),
                            dfs::join(c.dir, "L2/L." + std::to_string(s)), l2st,
                            &task.io(), c.opts.intermediate_tier());
  }

  void compute_u2_stripe(int s, mr::TaskContext& task) {
    const LuJobContext& c = *ctx_;
    const RowRange cols = stripe(c.n - c.h, c.u2_workers, s);
    if (cols.count() == 0) return;
    // U2 columns solve  L1·U2 = P1·A2  column-independently (Eq. 6).
    const Matrix l1 = assemble_l(task.fs(), *c.first, &task.io());
    // P1·A2 as it is read: row j of A2 lands in row S1⁻¹[j].
    const Permutation to = c.first->perm.inverse();
    Matrix pa2(c.h, cols.count());
    c.a2.read_into(task.fs(), 0, c.h, cols.begin, cols.end,
                   RowDest{pa2.data().data(), pa2.cols(), to.map()},
                   &task.io());
    const Matrix u2s = solve_lower(l1, std::move(pa2));
    task.add_flops(triangular_solve_cost(c.h, cols.count()));
    const std::string path = dfs::join(c.dir, "U2/U." + std::to_string(s));
    if (c.opts.transposed_u) {
      write_matrix_transposed(task.fs(), path, u2s, &task.io(),
                              c.opts.intermediate_tier());
    } else {
      write_matrix(task.fs(), path, u2s, &task.io(),
                   c.opts.intermediate_tier());
    }
  }

  LuJobContextPtr ctx_;
};

class LuReducer : public mr::Reducer {
 public:
  explicit LuReducer(LuJobContextPtr ctx) : ctx_(std::move(ctx)) {}

  void reduce(std::int64_t key, const std::vector<std::string>& /*values*/,
              mr::TaskContext& task) override {
    // Each reduce task does its block exactly once, keyed by its own index.
    if (key != task.task_index()) return;
    const LuJobContext& c = *ctx_;
    const int t = task.task_index();
    const Index bn = c.n - c.h;
    const RowRange rows = stripe(bn, c.grid_rows, t / c.grid_cols);
    const RowRange cols = stripe(bn, c.grid_cols, t % c.grid_cols);
    if (rows.count() == 0 || cols.count() == 0) return;

    const Matrix l2_rows = c.l2_out.read_block(task.fs(), rows.begin, rows.end,
                                               0, c.h, &task.io());
    Matrix product;
    if (c.opts.transposed_u) {
      const Matrix u2t_rows = c.u2_out.read_block(
          task.fs(), cols.begin, cols.end, 0, c.h, &task.io());
      product = matmul(l2_rows, u2t_rows, {.transposed_b = true});
      task.add_flops(kernels::kernel_cost(rows.count(), c.h, cols.count()));
    } else {
      const Matrix u2_cols = c.u2_out.read_block(task.fs(), 0, c.h, cols.begin,
                                                 cols.end, &task.io());
      product = matmul(l2_rows, u2_cols);
      task.add_flops(
          penalized(kernels::kernel_cost(rows.count(), c.h, cols.count()),
                    c.layout_penalty));
    }
    Matrix b = c.a4.read_block(task.fs(), rows.begin, rows.end, cols.begin,
                               cols.end, &task.io());
    subtract_in_place(&b, product);
    IoStats sub;
    sub.adds = static_cast<std::uint64_t>(rows.count()) *
               static_cast<std::uint64_t>(cols.count());
    task.add_flops(sub);
    write_matrix(task.fs(), dfs::join(c.dir, "OUT/A." + std::to_string(t)), b,
                 &task.io(), c.opts.intermediate_tier());
  }

 private:
  LuJobContextPtr ctx_;
};

std::vector<Tile> stripes_as_tiles(const std::string& dir, const char* prefix,
                                   Index total_rows, Index cols, int workers) {
  std::vector<Tile> tiles;
  for (int s = 0; s < workers; ++s) {
    const RowRange r = stripe(total_rows, workers, s);
    if (r.count() == 0) continue;
    Tile t;
    t.path = dfs::join(dir, std::string(prefix) + std::to_string(s));
    t.r0 = r.begin;
    t.r1 = r.end;
    t.c0 = 0;
    t.c1 = cols;
    tiles.push_back(std::move(t));
  }
  return tiles;
}

}  // namespace

void plan_lu_job_outputs(LuJobContext* ctx) {
  MRI_REQUIRE(ctx != nullptr && ctx->first != nullptr, "incomplete context");
  const Index bn = ctx->n - ctx->h;
  if (ctx->opts.block_wrap) {
    const BlockWrapFactors f = block_wrap_factors(ctx->m0);
    ctx->grid_rows = f.f1;
    ctx->grid_cols = f.f2;
  } else {
    // §6.2 off: one row band per node; each reducer reads all of U2.
    ctx->grid_rows = ctx->m0;
    ctx->grid_cols = 1;
  }

  ctx->l2_out = TileSet(
      bn, ctx->h, stripes_as_tiles(ctx->dir, "L2/L.", bn, ctx->h,
                                   ctx->l2_workers));
  if (ctx->opts.transposed_u) {
    // Files hold U2ᵀ: stripe s covers rows (= U2 columns) of U2ᵀ.
    ctx->u2_out = TileSet(bn, ctx->h,
                          stripes_as_tiles(ctx->dir, "U2/U.", bn, ctx->h,
                                           ctx->u2_workers));
  } else {
    std::vector<Tile> tiles;
    for (int s = 0; s < ctx->u2_workers; ++s) {
      const RowRange c = stripe(bn, ctx->u2_workers, s);
      if (c.count() == 0) continue;
      Tile t;
      t.path = dfs::join(ctx->dir, "U2/U." + std::to_string(s));
      t.r0 = 0;
      t.r1 = ctx->h;
      t.c0 = c.begin;
      t.c1 = c.end;
      tiles.push_back(std::move(t));
    }
    ctx->u2_out = TileSet(ctx->h, bn, std::move(tiles));
  }

  std::vector<Tile> b_tiles;
  const int reduce_tasks = ctx->grid_rows * ctx->grid_cols;
  for (int t = 0; t < reduce_tasks; ++t) {
    const RowRange rows = stripe(bn, ctx->grid_rows, t / ctx->grid_cols);
    const RowRange cols = stripe(bn, ctx->grid_cols, t % ctx->grid_cols);
    if (rows.count() == 0 || cols.count() == 0) continue;
    Tile tile;
    tile.path = dfs::join(ctx->dir, "OUT/A." + std::to_string(t));
    tile.r0 = rows.begin;
    tile.r1 = rows.end;
    tile.c0 = cols.begin;
    tile.c1 = cols.end;
    b_tiles.push_back(std::move(tile));
  }
  ctx->b_out = TileSet(bn, bn, std::move(b_tiles));
}

mr::JobSpec make_lu_job(LuJobContextPtr ctx,
                        std::vector<std::string> control_files,
                        std::string job_name) {
  MRI_REQUIRE(ctx != nullptr, "null LU job context");
  mr::JobSpec spec;
  spec.name = std::move(job_name);
  spec.input_files = std::move(control_files);
  spec.num_reduce_tasks = ctx->grid_rows * ctx->grid_cols;
  spec.mapper_factory = [ctx] { return std::make_unique<LuMapper>(ctx); };
  spec.reducer_factory = [ctx] { return std::make_unique<LuReducer>(ctx); };
  return spec;
}

}  // namespace mri::core

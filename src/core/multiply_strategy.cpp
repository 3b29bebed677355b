#include "core/multiply_strategy.hpp"

#include <algorithm>

#include "dfs/path.hpp"
#include "matrix/dfs_io.hpp"

namespace mri::core {

namespace {

std::uint64_t bytes(Index rows, Index cols) {
  return static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols) *
         sizeof(double);
}

class WrapStrategy : public MultiplyStrategy {
 public:
  const char* name() const override { return "wrap"; }

  void ingest(dfs::Dfs* fs, const Matrix& a, const Matrix& b,
              const std::string& work_dir,
              MultiplyJobContext* ctx) const override {
    // Operands pre-striped for the block wrap (the §5.2 storage discipline:
    // a reducer's stripe lives in its own files, so nobody reads whole
    // operands): A as f1 row stripes, B as f2 column stripes.
    const BlockWrapFactors f = block_wrap_factors(ctx->m0);
    const std::string mul_in = dfs::join(work_dir, "MULIN");
    std::vector<Tile> a_tiles;
    for (int s = 0; s < f.f1; ++s) {
      const RowRange r = stripe(a.rows(), f.f1, s);
      if (r.count() == 0) continue;
      Tile t;
      t.path = dfs::join(mul_in, "a." + std::to_string(s));
      t.r0 = r.begin;
      t.r1 = r.end;
      t.c0 = 0;
      t.c1 = a.cols();
      write_matrix(*fs, t.path, a, t.r0, t.r1, t.c0, t.c1);
      a_tiles.push_back(std::move(t));
    }
    std::vector<Tile> b_tiles;
    for (int s = 0; s < f.f2; ++s) {
      const RowRange c = stripe(b.cols(), f.f2, s);
      if (c.count() == 0) continue;
      Tile t;
      t.path = dfs::join(mul_in, "b." + std::to_string(s));
      t.r0 = 0;
      t.r1 = b.rows();
      t.c0 = c.begin;
      t.c1 = c.end;
      write_matrix(*fs, t.path, b, t.r0, t.r1, t.c0, t.c1);
      b_tiles.push_back(std::move(t));
    }
    ctx->a = TileSet(a.rows(), a.cols(), std::move(a_tiles));
    ctx->b = TileSet(b.rows(), b.cols(), std::move(b_tiles));
  }

  MultiplyPlan plan(MultiplyJobContext* ctx) const override {
    plan_multiply_job(ctx);
    ctx->segments = 1;
    ctx->rounds = 1;
    MultiplyPlan p;
    p.strategy_jobs = 1;
    p.grid_rows = ctx->grid_rows;
    p.grid_cols = ctx->grid_cols;
    for (int t = 0; t < ctx->grid_rows * ctx->grid_cols; ++t) {
      const RowRange rows =
          stripe(ctx->a.rows(), ctx->grid_rows, t / ctx->grid_cols);
      const RowRange cols =
          stripe(ctx->b.cols(), ctx->grid_cols, t % ctx->grid_cols);
      const std::uint64_t task_bytes = bytes(rows.count(), ctx->a.cols()) +
                                       bytes(ctx->b.rows(), cols.count()) +
                                       bytes(rows.count(), cols.count());
      p.peak_task_bytes = std::max(p.peak_task_bytes, task_bytes);
    }
    return p;
  }

  mr::JobHandle submit(mr::JobGraph* graph, MultiplyJobContextPtr ctx,
                       const std::vector<std::string>& control_files,
                       mr::JobHandle after) const override {
    return graph->submit(make_multiply_job(ctx, control_files, "multiply"),
                         {after});
  }
};

class MultiRoundStrategy : public MultiplyStrategy {
 public:
  const char* name() const override { return "multiround"; }

  void ingest(dfs::Dfs* fs, const Matrix& a, const Matrix& b,
              const std::string& work_dir,
              MultiplyJobContext* ctx) const override {
    // Block layout keyed by (grid stripe, k-segment): a task's round reads
    // exactly the r segment blocks it consumes — no over-charging from
    // full-width rows — so operand read bytes are independent of r and only
    // the carry-tile traffic varies with the round count.
    const BlockWrapFactors f = block_wrap_factors(ctx->m0);
    const int segments = ctx->m0;
    const std::string mul_in = dfs::join(work_dir, "MULIN");
    std::vector<Tile> a_tiles;
    for (int i = 0; i < f.f1; ++i) {
      const RowRange r = stripe(a.rows(), f.f1, i);
      if (r.count() == 0) continue;
      for (int s = 0; s < segments; ++s) {
        const RowRange k = stripe(a.cols(), segments, s);
        if (k.count() == 0) continue;
        Tile t;
        t.path = dfs::join(mul_in, "a." + std::to_string(i) + "." +
                                       std::to_string(s));
        t.r0 = r.begin;
        t.r1 = r.end;
        t.c0 = k.begin;
        t.c1 = k.end;
        write_matrix(*fs, t.path, a, t.r0, t.r1, t.c0, t.c1);
        a_tiles.push_back(std::move(t));
      }
    }
    std::vector<Tile> b_tiles;
    for (int s = 0; s < segments; ++s) {
      const RowRange k = stripe(b.rows(), segments, s);
      if (k.count() == 0) continue;
      for (int j = 0; j < f.f2; ++j) {
        const RowRange c = stripe(b.cols(), f.f2, j);
        if (c.count() == 0) continue;
        Tile t;
        t.path = dfs::join(mul_in, "b." + std::to_string(s) + "." +
                                       std::to_string(j));
        t.r0 = k.begin;
        t.r1 = k.end;
        t.c0 = c.begin;
        t.c1 = c.end;
        write_matrix(*fs, t.path, b, t.r0, t.r1, t.c0, t.c1);
        b_tiles.push_back(std::move(t));
      }
    }
    ctx->a = TileSet(a.rows(), a.cols(), std::move(a_tiles));
    ctx->b = TileSet(b.rows(), b.cols(), std::move(b_tiles));
  }

  MultiplyPlan plan(MultiplyJobContext* ctx) const override {
    plan_multiply_job(ctx);
    ctx->segments = ctx->m0;
    const int r = std::clamp(ctx->strategy.replication, 1, ctx->segments);
    ctx->rounds = (ctx->segments + r - 1) / r;

    MultiplyPlan p;
    p.rounds = ctx->rounds;
    p.segments = ctx->segments;
    p.replication = r;
    p.strategy_jobs = ctx->rounds;
    p.grid_rows = ctx->grid_rows;
    p.grid_cols = ctx->grid_cols;
    for (int t = 0; t < ctx->grid_rows * ctx->grid_cols; ++t) {
      const RowRange rows =
          stripe(ctx->a.rows(), ctx->grid_rows, t / ctx->grid_cols);
      const RowRange cols =
          stripe(ctx->b.cols(), ctx->grid_cols, t % ctx->grid_cols);
      for (int round = 0; round < ctx->rounds; ++round) {
        // Carry tile plus the round's r operand segment blocks.
        std::uint64_t task_bytes = bytes(rows.count(), cols.count());
        const int s0 = round * r;
        const int s1 = std::min(ctx->segments, s0 + r);
        for (int s = s0; s < s1; ++s) {
          const RowRange seg = stripe(ctx->a.cols(), ctx->segments, s);
          task_bytes += bytes(rows.count(), seg.count()) +
                        bytes(seg.count(), cols.count());
        }
        p.peak_task_bytes = std::max(p.peak_task_bytes, task_bytes);
      }
    }
    return p;
  }

  mr::JobHandle submit(mr::JobGraph* graph, MultiplyJobContextPtr ctx,
                       const std::vector<std::string>& control_files,
                       mr::JobHandle after) const override {
    mr::JobHandle h = after;
    for (int round = 0; round < ctx->rounds; ++round) {
      h = graph->submit(
          make_multiply_round_job(ctx, round, control_files,
                                  "multiply-r" + std::to_string(round)),
          {h});
    }
    return h;
  }
};

}  // namespace

const char* multiply_strategy_name(MultiplyStrategyKind kind) {
  switch (kind) {
    case MultiplyStrategyKind::kWrap:
      return "wrap";
    case MultiplyStrategyKind::kMultiRound:
      return "multiround";
  }
  return "unknown";
}

bool parse_multiply_strategy(const std::string& name,
                             MultiplyStrategyKind* out) {
  if (name == "wrap") {
    *out = MultiplyStrategyKind::kWrap;
    return true;
  }
  if (name == "multiround") {
    *out = MultiplyStrategyKind::kMultiRound;
    return true;
  }
  return false;
}

std::unique_ptr<MultiplyStrategy> make_multiply_strategy(
    MultiplyStrategyKind kind) {
  if (kind == MultiplyStrategyKind::kMultiRound) {
    return std::make_unique<MultiRoundStrategy>();
  }
  return std::make_unique<WrapStrategy>();
}

Matrix mapreduce_multiply(mr::JobGraph* graph, dfs::Dfs* fs, int m0,
                          const Matrix& a, const Matrix& b,
                          const std::string& work_dir,
                          std::vector<std::string> control_files,
                          const MultiplyStrategyOptions& strategy,
                          mr::JobHandle after, MultiplyPlan* plan_out) {
  MRI_REQUIRE(graph != nullptr && fs != nullptr, "null graph/fs");
  const std::unique_ptr<MultiplyStrategy> impl =
      make_multiply_strategy(strategy.strategy);

  auto ctx = std::make_shared<MultiplyJobContext>();
  ctx->dir = work_dir;
  ctx->m0 = m0;
  ctx->strategy = strategy;

  const std::string mul_in = dfs::join(work_dir, "MULIN");
  if (fs->exists(mul_in)) fs->remove(mul_in, /*recursive=*/true);
  impl->ingest(fs, a, b, work_dir, ctx.get());
  const MultiplyPlan plan = impl->plan(ctx.get());
  if (plan_out != nullptr) *plan_out = plan;

  for (const char* out_dir : {"MUL", "MULR"}) {
    const std::string path = dfs::join(work_dir, out_dir);
    if (fs->exists(path)) fs->remove(path, /*recursive=*/true);
  }
  graph->wait(impl->submit(graph, ctx, control_files, after));
  return ctx->c_out.read_all(*fs);
}

}  // namespace mri::core

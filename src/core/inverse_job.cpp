#include "core/inverse_job.hpp"

#include <algorithm>

#include "core/assemble.hpp"
#include "core/plan.hpp"
#include "dfs/path.hpp"
#include "linalg/kernels/kernel.hpp"
#include "linalg/triangular.hpp"
#include "matrix/dfs_io.hpp"
#include "matrix/layout.hpp"

namespace mri::core {

std::vector<Index> interleaved_ids(Index n, int workers, int s) {
  std::vector<Index> ids;
  for (Index k = s; k < n; k += workers) ids.push_back(k);
  return ids;
}

RowRange file_group(int count, int groups, int g) {
  return stripe(count, groups, g);
}

Matrix triangular_product(Index n, const std::vector<InverseSlice>& u_slices,
                          const std::vector<InverseSlice>& l_slices) {
  constexpr Index kDepth = 128;  // inner-dimension block of one GEMM
  Index rows = 0, cols = 0;
  for (const InverseSlice& u : u_slices) {
    MRI_REQUIRE(u.data.rows() == static_cast<Index>(u.ids.size()) &&
                    u.data.cols() == n &&
                    std::is_sorted(u.ids.begin(), u.ids.end()),
                "U⁻¹ slice needs one ascending id per row of " << n);
    rows += u.data.rows();
  }
  for (const InverseSlice& l : l_slices) {
    MRI_REQUIRE(l.data.cols() == static_cast<Index>(l.ids.size()) &&
                    l.data.rows() == n &&
                    std::is_sorted(l.ids.begin(), l.ids.end()),
                "L⁻¹ slice needs one ascending id per column of " << n);
    cols += l.data.cols();
  }
  // How many of a slice's ids fall below `bound` (a prefix: ids ascend).
  const auto below = [](const std::vector<Index>& ids, Index bound) {
    return static_cast<Index>(
        std::lower_bound(ids.begin(), ids.end(), bound) - ids.begin());
  };
  Matrix product(rows, cols);
  kernels::KernelContext kernel;
  Index row0 = 0;
  for (const InverseSlice& u : u_slices) {
    Index col0 = 0;
    for (const InverseSlice& l : l_slices) {
      for (Index p0 = 0; p0 < n; p0 += kDepth) {
        const Index p1 = std::min(p0 + kDepth, n);
        const Index r = below(u.ids, p1);
        const Index k = below(l.ids, p1);
        if (r == 0 || k == 0) continue;
        kernel.gemm(kernels::GemmMode::kAccumulate, r, k, p1 - p0,
                    u.data.data().data() + p0, n,
                    l.data.data().data() + p0 * l.data.cols(), l.data.cols(),
                    product.data().data() + row0 * cols + col0, cols);
      }
      col0 += l.data.cols();
    }
    row0 += u.data.rows();
  }
  return product;
}

namespace {

/// Exact flop count of computing the listed columns of L⁻¹ via Eq. 4
/// (column k costs ~(n-k)²/2 multiplies).
IoStats column_inverse_cost(Index n, const std::vector<Index>& ids) {
  IoStats io;
  for (Index k : ids) {
    const auto len = static_cast<std::uint64_t>(n - k);
    io.mults += len * len / 2;
    io.adds += len * len / 2;
  }
  return io;
}

// ---- indexed block files (final output format) ---------------------------
//
// u64 K1 | u64 K2 | K1 row ids | K2 column ids (already permuted) | K1*K2
// doubles, row-major.

void write_indexed_block(dfs::Dfs& fs, const std::string& path,
                         const std::vector<Index>& row_ids,
                         const std::vector<Index>& col_ids, const Matrix& data,
                         IoStats* account) {
  MRI_CHECK(data.rows() == static_cast<Index>(row_ids.size()) &&
            data.cols() == static_cast<Index>(col_ids.size()));
  dfs::Dfs::Writer w = fs.create(path, account);
  w.reserve(sizeof(std::uint64_t) * (2 + row_ids.size() + col_ids.size()) +
            static_cast<std::size_t>(data.size()) * sizeof(double));
  w.write_u64(row_ids.size());
  w.write_u64(col_ids.size());
  for (Index r : row_ids) w.write_u64(static_cast<std::uint64_t>(r));
  for (Index c : col_ids) w.write_u64(static_cast<std::uint64_t>(c));
  w.write_doubles(data.data());
  w.close();
}

/// Reads the indexed block at `path` into its cells of `out` (the
/// order-n inverse). The header is checked against the file before it is
/// trusted — K1, K2 <= n, the size they imply, every id in [0, n) — so a
/// damaged file throws DfsError instead of writing out of bounds.
void read_indexed_block(const dfs::Dfs& fs, const std::string& path,
                        Matrix* out) {
  const Index n = out->rows();
  const auto order = static_cast<std::uint64_t>(n);
  auto r = fs.open(path, nullptr);
  const auto bad = [&](const std::string& what) {
    return DfsError("indexed block " + path + ": " + what);
  };
  const std::uint64_t k1 = r.size() >= 16 ? r.read_u64() : 0;
  const std::uint64_t k2 = r.size() >= 16 ? r.read_u64() : 0;
  if (k1 > order || k2 > order ||
      r.size() != 8 * (2 + k1 + k2) + 8 * k1 * k2) {
    throw bad(std::to_string(k1) + "x" + std::to_string(k2) +
              " cells do not match the file's " + std::to_string(r.size()) +
              " bytes in an order-" + std::to_string(n) + " inverse");
  }
  const auto read_ids = [&](std::uint64_t count) {
    std::vector<Index> ids(static_cast<std::size_t>(count));
    for (Index& id : ids) {
      const std::uint64_t v = r.read_u64();
      if (v >= order) {
        throw bad("id " + std::to_string(v) + " outside [0, " +
                  std::to_string(n) + ")");
      }
      id = static_cast<Index>(v);
    }
    return ids;
  };
  const std::vector<Index> row_ids = read_ids(k1);
  const std::vector<Index> col_ids = read_ids(k2);
  // The K1·K2 doubles, row-major: one row at a time, scattered to its cells.
  std::vector<double> row(col_ids.size());
  for (Index i : row_ids) {
    r.read_doubles(row);
    for (std::size_t j = 0; j < row.size(); ++j) {
      (*out)(i, col_ids[j]) = row[j];
    }
  }
}

/// Block wrap off: reducer t's stripe of the rows of U file t mod u_workers.
/// File f has one slice per reducer t < m0 with t mod u_workers == f, so
/// when u_workers does not divide m0 the low files get one slice more.
RowRange naive_u_rows(const InverseJobContext& c, int t) {
  const int file = t % c.u_workers;
  const int slices = (c.m0 - file + c.u_workers - 1) / c.u_workers;
  const auto ids =
      static_cast<Index>(interleaved_ids(c.n, c.u_workers, file).size());
  return stripe(ids, slices, t / c.u_workers);
}

/// Whether reducer t writes its cell AINV/A.t: the plan leaves a cell empty
/// when its group of U or of L files is (block wrap), or its stripe of U
/// rows is (row bands).
bool writes_inverse_cell(const InverseJobContext& c, int t) {
  if (c.opts.block_wrap) {
    return file_group(c.u_workers, c.u_groups, t / c.l_groups).count() > 0 &&
           file_group(c.l_workers, c.l_groups, t % c.l_groups).count() > 0;
  }
  return naive_u_rows(c, t).count() > 0;
}

// ---- mappers --------------------------------------------------------------

void invert_l_slice(const InverseJobContext& c, int s, mr::TaskContext& task) {
  const std::vector<Index> ids = interleaved_ids(c.n, c.l_workers, s);
  if (ids.empty()) return;
  const Matrix l = assemble_l(task.fs(), *c.root, &task.io());
  const Matrix cols = invert_lower_columns(l, ids);  // n x K
  task.add_flops(column_inverse_cost(c.n, ids));
  write_matrix(task.fs(), dfs::join(c.dir, "INV/L." + std::to_string(s)),
               cols, &task.io(), c.opts.intermediate_tier());
}

void invert_u_slice(const InverseJobContext& c, int s, mr::TaskContext& task) {
  const std::vector<Index> ids = interleaved_ids(c.n, c.u_workers, s);
  if (ids.empty()) return;
  const Matrix ut = assemble_ut(task.fs(), *c.root, &task.io());
  // Columns of (Uᵀ)⁻¹ are rows of U⁻¹; store them as rows (K x n) so the
  // reducers' multiply streams them.
  const Matrix cols = invert_lower_columns(ut, ids);
  IoStats flops = column_inverse_cost(c.n, ids);
  if (!c.opts.transposed_u) flops = penalized(flops, c.layout_penalty);
  task.add_flops(flops);
  write_matrix_transposed(task.fs(),
                          dfs::join(c.dir, "INV/U." + std::to_string(s)), cols,
                          &task.io(), c.opts.intermediate_tier());
}

class InverseMapper : public mr::Mapper {
 public:
  explicit InverseMapper(InverseJobContextPtr ctx) : ctx_(std::move(ctx)) {}

  void map(std::int64_t key, const std::string& value,
           mr::TaskContext& task) override {
    const int i =
        control_worker_id(value, static_cast<int>(key), task.input_path());
    if (ctx_->m0 == 1) {
      invert_l_slice(*ctx_, 0, task);
      invert_u_slice(*ctx_, 0, task);
    } else if (i < ctx_->l_workers) {
      invert_l_slice(*ctx_, i, task);
    } else {
      invert_u_slice(*ctx_, i - ctx_->l_workers, task);
    }
    task.emit(key, std::to_string(i));
  }

 private:
  InverseJobContextPtr ctx_;
};

/// Map-only: control file j (j < l_workers) -> the L⁻¹ column slice j.
class InverseLMapper : public mr::Mapper {
 public:
  explicit InverseLMapper(InverseJobContextPtr ctx) : ctx_(std::move(ctx)) {}

  void map(std::int64_t key, const std::string& value,
           mr::TaskContext& task) override {
    invert_l_slice(*ctx_,
                   control_worker_id(value, static_cast<int>(key),
                                     task.input_path()),
                   task);
  }

 private:
  InverseJobContextPtr ctx_;
};

/// Map-only: control file l_workers + s -> the U⁻¹ row slice s (with a
/// single node, control file 0 -> slice 0).
class InverseUMapper : public mr::Mapper {
 public:
  explicit InverseUMapper(InverseJobContextPtr ctx) : ctx_(std::move(ctx)) {}

  void map(std::int64_t key, const std::string& value,
           mr::TaskContext& task) override {
    // Task s of this job reads control file l_workers + s (file 0 alone
    // with a single node).
    const int base = ctx_->m0 == 1 ? 0 : ctx_->l_workers;
    const int id = control_worker_id(value, base + static_cast<int>(key),
                                     task.input_path());
    invert_u_slice(*ctx_, id - base, task);
  }

 private:
  InverseJobContextPtr ctx_;
};

/// Control fan-out for the split multiply job: the INV/ slices are already
/// in the DFS, so the mappers only route one record per reducer key.
class InverseMulMapper : public mr::Mapper {
 public:
  void map(std::int64_t key, const std::string& value,
           mr::TaskContext& task) override {
    task.emit(key, value);
  }
};

// ---- reducer ----------------------------------------------------------------

class InverseReducer : public mr::Reducer {
 public:
  explicit InverseReducer(InverseJobContextPtr ctx) : ctx_(std::move(ctx)) {}

  void reduce(std::int64_t key, const std::vector<std::string>& /*values*/,
              mr::TaskContext& task) override {
    if (key != task.task_index()) return;
    const InverseJobContext& c = *ctx_;
    const int t = task.task_index();
    if (!writes_inverse_cell(c, t)) return;

    // Which U⁻¹ rows this reducer owns, and which L files it reads.
    std::vector<InverseSlice> u_slices;
    RowRange l_files;
    if (c.opts.block_wrap) {
      // §6.2 grid cell: a group of U files x a group of L files.
      const RowRange u_files =
          file_group(c.u_workers, c.u_groups, t / c.l_groups);
      l_files = file_group(c.l_workers, c.l_groups, t % c.l_groups);
      for (Index f = u_files.begin; f < u_files.end; ++f) {
        auto ids = interleaved_ids(c.n, c.u_workers, static_cast<int>(f));
        if (ids.empty()) continue;
        u_slices.push_back(
            {std::move(ids),
             read_matrix(task.fs(),
                         dfs::join(c.dir, "INV/U." + std::to_string(f)),
                         &task.io())});
      }
    } else {
      // Naive baseline: all m0 reducers compute row bands of the product;
      // reducer t takes a slice of U file (t mod u_workers) and reads every
      // L file — the (1 + 1/m0)·n² per-node read of §6.2.
      const int file = t % c.u_workers;
      const auto ids = interleaved_ids(c.n, c.u_workers, file);
      const RowRange r = naive_u_rows(c, t);
      const Matrix whole = read_matrix(
          task.fs(), dfs::join(c.dir, "INV/U." + std::to_string(file)),
          &task.io());
      u_slices.push_back({std::vector<Index>(ids.begin() + r.begin,
                                             ids.begin() + r.end),
                          whole.block(r.begin, r.end, 0, c.n)});
      l_files = RowRange{0, static_cast<Index>(c.l_workers)};
    }

    // The L⁻¹ columns of this cell's L files.
    std::vector<InverseSlice> l_slices;
    for (Index f = l_files.begin; f < l_files.end; ++f) {
      auto ids = interleaved_ids(c.n, c.l_workers, static_cast<int>(f));
      if (ids.empty()) continue;
      l_slices.push_back(
          {std::move(ids),
           read_matrix(task.fs(),
                       dfs::join(c.dir, "INV/L." + std::to_string(f)),
                       &task.io())});
    }

    std::vector<Index> row_ids, col_ids;
    for (const InverseSlice& s : u_slices) {
      row_ids.insert(row_ids.end(), s.ids.begin(), s.ids.end());
    }
    for (const InverseSlice& s : l_slices) {
      col_ids.insert(col_ids.end(), s.ids.begin(), s.ids.end());
    }

    const Matrix product = triangular_product(c.n, u_slices, l_slices);
    // Exact work of the triangular product: row r of U⁻¹ has nonzeros at
    // columns >= r, column k of L⁻¹ at rows >= k, so the inner product for
    // (r, k) runs over n - max(r, k) terms (this is the paper's (1/3)n³
    // leading term when summed over the whole matrix).
    IoStats flops;
    for (Index r : row_ids) {
      for (Index k : col_ids) {
        flops.mults += static_cast<std::uint64_t>(c.n - std::max(r, k));
      }
    }
    flops.adds = flops.mults;
    if (!c.opts.transposed_u) flops = penalized(flops, c.layout_penalty);
    task.add_flops(flops);

    // A⁻¹ = U⁻¹L⁻¹P: product column k is final column S[k].
    std::vector<Index> out_col_ids;
    out_col_ids.reserve(col_ids.size());
    for (Index k : col_ids) out_col_ids.push_back(c.root->perm[k]);

    write_indexed_block(task.fs(), dfs::join(c.dir, "AINV/A." + std::to_string(t)),
                        row_ids, out_col_ids, product, &task.io());
  }

 private:
  InverseJobContextPtr ctx_;
};

}  // namespace

void plan_inverse_job(InverseJobContext* ctx) {
  MRI_REQUIRE(ctx != nullptr && ctx->root != nullptr, "incomplete context");
  if (ctx->m0 == 1) {
    ctx->l_workers = ctx->u_workers = 1;
  } else {
    ctx->l_workers = (ctx->m0 + 1) / 2;
    ctx->u_workers = ctx->m0 - ctx->l_workers;
  }
  if (ctx->opts.block_wrap) {
    const BlockWrapFactors f = block_wrap_factors(ctx->m0);
    ctx->u_groups = std::min(f.f1, ctx->u_workers);
    ctx->l_groups = std::min(f.f2, ctx->l_workers);
  } else {
    // §6.2 off: all m0 reducers compute row bands, each reading every L
    // file (u_groups * l_groups is still the reduce-task count).
    ctx->u_groups = ctx->m0;
    ctx->l_groups = 1;
  }
}

mr::JobSpec make_inverse_job(InverseJobContextPtr ctx,
                             std::vector<std::string> control_files) {
  MRI_REQUIRE(ctx != nullptr, "null inverse job context");
  mr::JobSpec spec;
  spec.name = "invert";
  spec.input_files = std::move(control_files);
  spec.num_reduce_tasks = ctx->u_groups * ctx->l_groups;
  spec.mapper_factory = [ctx] { return std::make_unique<InverseMapper>(ctx); };
  spec.reducer_factory = [ctx] {
    return std::make_unique<InverseReducer>(ctx);
  };
  return spec;
}

InverseStageJobs make_inverse_stage_jobs(
    InverseJobContextPtr ctx, const std::vector<std::string>& control_files) {
  MRI_REQUIRE(ctx != nullptr, "null inverse job context");
  MRI_REQUIRE(static_cast<int>(control_files.size()) >= ctx->m0,
              "need one control file per worker");
  InverseStageJobs jobs;

  // The same control files the combined job's workers would read: files
  // [0, l_workers) drive L slices, files [l_workers, m0) drive U slices
  // (both on file 0 when there is a single worker).
  jobs.invert_l.name = "invert-l";
  jobs.invert_l.input_files.assign(
      control_files.begin(),
      control_files.begin() + ctx->l_workers);
  jobs.invert_l.mapper_factory = [ctx] {
    return std::make_unique<InverseLMapper>(ctx);
  };

  jobs.invert_u.name = "invert-u";
  if (ctx->m0 == 1) {
    jobs.invert_u.input_files.assign(control_files.begin(),
                                     control_files.begin() + 1);
  } else {
    jobs.invert_u.input_files.assign(
        control_files.begin() + ctx->l_workers,
        control_files.begin() + ctx->m0);
  }
  jobs.invert_u.mapper_factory = [ctx] {
    return std::make_unique<InverseUMapper>(ctx);
  };

  jobs.multiply.name = "invert-mul";
  jobs.multiply.input_files.assign(control_files.begin(),
                                   control_files.begin() + ctx->m0);
  jobs.multiply.num_reduce_tasks = ctx->u_groups * ctx->l_groups;
  jobs.multiply.mapper_factory = [] {
    return std::make_unique<InverseMulMapper>();
  };
  jobs.multiply.reducer_factory = [ctx] {
    return std::make_unique<InverseReducer>(ctx);
  };
  return jobs;
}

Matrix assemble_inverse(const dfs::Dfs& fs, const InverseJobContext& ctx) {
  Matrix out(ctx.n, ctx.n);
  const int reduce_tasks = ctx.u_groups * ctx.l_groups;
  for (int t = 0; t < reduce_tasks; ++t) {
    const std::string path = dfs::join(ctx.dir, "AINV/A." + std::to_string(t));
    if (!writes_inverse_cell(ctx, t)) continue;  // the plan's empty cells
    if (!fs.exists(path)) {
      throw DfsError("final job output " + path +
                     " is missing: its cell of the inverse is not empty");
    }
    read_indexed_block(fs, path, &out);
  }
  return out;
}

}  // namespace mri::core

// The final job's (§5.4) staircase product U⁻¹·L⁻¹ against a dense matmul
// of the same slices, for every reducer cell of the block-wrap grid and of
// the row-band baseline.
#include "core/inverse_job.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "dfs/dfs.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri::core {
namespace {

InverseSlice rows_of(const Matrix& m, std::vector<Index> ids) {
  Matrix data(static_cast<Index>(ids.size()), m.cols());
  for (std::size_t r = 0; r < ids.size(); ++r) {
    data.set_block(static_cast<Index>(r), 0,
                   m.block(ids[r], ids[r] + 1, 0, m.cols()));
  }
  return {std::move(ids), std::move(data)};
}

InverseSlice cols_of(const Matrix& m, std::vector<Index> ids) {
  Matrix data(m.rows(), static_cast<Index>(ids.size()));
  for (std::size_t c = 0; c < ids.size(); ++c) {
    data.set_block(0, static_cast<Index>(c),
                   m.block(0, m.rows(), ids[c], ids[c] + 1));
  }
  return {std::move(ids), std::move(data)};
}

/// The dense product the reducer ran before: stack the slices, multiply.
Matrix dense_product(Index n, const std::vector<InverseSlice>& u,
                     const std::vector<InverseSlice>& l) {
  Index rows = 0, cols = 0;
  for (const InverseSlice& s : u) rows += s.data.rows();
  for (const InverseSlice& s : l) cols += s.data.cols();
  Matrix a(rows, n), b(n, cols);
  Index at = 0;
  for (const InverseSlice& s : u) {
    a.set_block(at, 0, s.data);
    at += s.data.rows();
  }
  at = 0;
  for (const InverseSlice& s : l) {
    b.set_block(0, at, s.data);
    at += s.data.cols();
  }
  return matmul(a, b);
}

class TriangularProductCells
    : public ::testing::TestWithParam<std::tuple<Index, int, bool>> {};

TEST_P(TriangularProductCells, MatchesDenseMatmul) {
  const auto [n, m0, block_wrap] = GetParam();
  const LuNode root;  // plan_inverse_job only needs the tree to exist
  InverseJobContext ctx;
  ctx.root = &root;
  ctx.n = n;
  ctx.m0 = m0;
  ctx.opts.block_wrap = block_wrap;
  plan_inverse_job(&ctx);
  // Any upper/lower triangular pair has the zero pattern of U⁻¹ and L⁻¹.
  const Matrix u_inv = random_upper_triangular(n, /*seed=*/n + m0);
  const Matrix l_inv = transpose(random_upper_triangular(n, /*seed=*/n * 3));
  const double tol = 1e-13 * static_cast<double>(n + 1);

  // Every reducer cell, sliced the way InverseReducer slices it.
  int cells = 0;
  for (int t = 0; t < ctx.u_groups * ctx.l_groups; ++t) {
    std::vector<InverseSlice> u, l;
    RowRange l_files;
    if (block_wrap) {
      const RowRange u_files =
          file_group(ctx.u_workers, ctx.u_groups, t / ctx.l_groups);
      l_files = file_group(ctx.l_workers, ctx.l_groups, t % ctx.l_groups);
      for (Index f = u_files.begin; f < u_files.end; ++f) {
        auto ids = interleaved_ids(n, ctx.u_workers, static_cast<int>(f));
        if (!ids.empty()) u.push_back(rows_of(u_inv, std::move(ids)));
      }
    } else {
      const int slices = (ctx.m0 + ctx.u_workers - 1) / ctx.u_workers;
      const auto ids = interleaved_ids(n, ctx.u_workers, t % ctx.u_workers);
      const RowRange r =
          stripe(static_cast<Index>(ids.size()), slices, t / ctx.u_workers);
      if (r.count() == 0) continue;
      u.push_back(rows_of(
          u_inv, std::vector<Index>(ids.begin() + r.begin,
                                    ids.begin() + r.end)));
      l_files = RowRange{0, static_cast<Index>(ctx.l_workers)};
    }
    for (Index f = l_files.begin; f < l_files.end; ++f) {
      auto ids = interleaved_ids(n, ctx.l_workers, static_cast<int>(f));
      if (!ids.empty()) l.push_back(cols_of(l_inv, std::move(ids)));
    }
    const Matrix got = triangular_product(n, u, l);
    const Matrix want = dense_product(n, u, l);
    ASSERT_EQ(got.rows(), want.rows()) << "cell " << t;
    ASSERT_EQ(got.cols(), want.cols()) << "cell " << t;
    EXPECT_LT(max_abs_diff(got, want), tol) << "cell " << t;
    ++cells;
  }
  EXPECT_GT(cells, 0);
}

// Orders straddle the 128-deep inner blocks; m0 covers the single-worker
// split, odd splits and more files than groups.
INSTANTIATE_TEST_SUITE_P(
    Cells, TriangularProductCells,
    ::testing::Combine(::testing::Values(1, 127, 128, 129, 300),
                       ::testing::Values(1, 2, 5, 8), ::testing::Bool()));

TEST(TriangularProduct, EmptySlicesGiveEmptyProduct) {
  const Matrix p = triangular_product(4, {}, {});
  EXPECT_EQ(p.rows(), 0);
  EXPECT_EQ(p.cols(), 0);
}

TEST(TriangularProduct, RejectsUnsortedOrMismatchedIds) {
  const Matrix u_inv = random_upper_triangular(6, /*seed=*/1);
  const Matrix l_inv = transpose(random_upper_triangular(6, /*seed=*/2));
  const std::vector<InverseSlice> l = {cols_of(l_inv, {0, 3})};
  EXPECT_THROW(triangular_product(6, {rows_of(u_inv, {4, 1})}, l),
               InvalidArgument);
  InverseSlice short_ids = rows_of(u_inv, {1, 4});
  short_ids.ids.pop_back();
  EXPECT_THROW(triangular_product(6, {short_ids}, l), InvalidArgument);
}

// ---- assembling A⁻¹ from the reducers' indexed blocks -----------------------

class AssembleInverseTest : public ::testing::Test {
 protected:
  /// A context whose reducer grid has `m0` workers over an order-n inverse
  /// (only the plan matters: assembly reads no factors).
  InverseJobContext context(Index n, int m0, bool block_wrap) const {
    InverseJobContext ctx;
    ctx.root = &root_;
    ctx.n = n;
    ctx.m0 = m0;
    ctx.dir = "/inv";
    ctx.opts.block_wrap = block_wrap;
    plan_inverse_job(&ctx);
    return ctx;
  }

  /// Writes cell t the way the reducer does: K1, K2, the ids, the values.
  void write_cell(int t, const std::vector<std::uint64_t>& rows,
                  const std::vector<std::uint64_t>& cols, const Matrix& x,
                  std::uint64_t extra_bytes = 0) {
    auto w = fs.create("/inv/AINV/A." + std::to_string(t));
    w.write_u64(rows.size());
    w.write_u64(cols.size());
    for (std::uint64_t r : rows) w.write_u64(r);
    for (std::uint64_t c : cols) w.write_u64(c);
    for (std::uint64_t r : rows) {
      for (std::uint64_t c : cols) {
        const bool inside = r < static_cast<std::uint64_t>(x.rows()) &&
                            c < static_cast<std::uint64_t>(x.cols());
        w.write_doubles(std::vector<double>{
            inside ? x(static_cast<Index>(r), static_cast<Index>(c)) : 0.0});
      }
    }
    for (std::uint64_t i = 0; i < extra_bytes; ++i) w.write_u64(0);
    w.close();
  }

  /// Cell t of the 2x2 block-wrap grid over order 6 (m0 = 4): rows of U
  /// file t / 2 and columns of L file t % 2 (interleaved by parity).
  void write_grid_cell(int t, const Matrix& x) {
    const auto parity = [](int p) {
      std::vector<std::uint64_t> ids;
      for (std::uint64_t k = static_cast<std::uint64_t>(p); k < 6; k += 2) {
        ids.push_back(k);
      }
      return ids;
    };
    write_cell(t, parity(t / 2), parity(t % 2), x);
  }

  static std::string error_of(const dfs::Dfs& fs, const InverseJobContext& c) {
    try {
      assemble_inverse(fs, c);
    } catch (const DfsError& e) {
      return e.what();
    }
    return "";
  }

  dfs::DfsConfig small_blocks() const {
    dfs::DfsConfig cfg;
    cfg.block_size = 20;  // doubles straddle block boundaries
    return cfg;
  }

  const LuNode root_;
  dfs::Dfs fs{3, small_blocks()};
};

TEST_F(AssembleInverseTest, PlacesEveryCell) {
  const InverseJobContext ctx = context(6, 4, /*block_wrap=*/true);
  ASSERT_EQ(ctx.u_groups * ctx.l_groups, 4);
  const Matrix x = random_matrix(6, 6, /*seed=*/3, -1, 1);
  for (int t = 0; t < 4; ++t) write_grid_cell(t, x);
  EXPECT_EQ(assemble_inverse(fs, ctx), x);
}

TEST_F(AssembleInverseTest, MissingCellThrowsNamingItsPath) {
  const InverseJobContext ctx = context(6, 4, /*block_wrap=*/true);
  const Matrix x = random_matrix(6, 6, /*seed=*/4, -1, 1);
  for (int t = 0; t < 4; ++t) write_grid_cell(t, x);
  fs.remove("/inv/AINV/A.2");  // a lost reducer output
  EXPECT_NE(error_of(fs, ctx).find("/inv/AINV/A.2"), std::string::npos);
}

TEST_F(AssembleInverseTest, CellsThePlanLeavesEmptyMayBeAbsent) {
  // Row bands over order 2 on 4 reducers: U file 0 holds row 0 alone, so
  // of its two slices only reducer 0's is non-empty (reducer 2 writes
  // nothing), and likewise reducer 1 of file 1 (reducer 3 writes nothing).
  const InverseJobContext ctx = context(2, 4, /*block_wrap=*/false);
  const Matrix x = random_matrix(2, 2, /*seed=*/5, -1, 1);
  write_cell(0, {0}, {0, 1}, x);
  write_cell(1, {1}, {0, 1}, x);
  EXPECT_EQ(assemble_inverse(fs, ctx), x);
  fs.remove("/inv/AINV/A.1");
  EXPECT_NE(error_of(fs, ctx).find("/inv/AINV/A.1"), std::string::npos);
}

TEST_F(AssembleInverseTest, DamagedHeadersAreRefused) {
  const InverseJobContext ctx = context(6, 4, /*block_wrap=*/true);
  const Matrix x = random_matrix(6, 6, /*seed=*/6, -1, 1);
  for (int t = 1; t < 4; ++t) write_grid_cell(t, x);
  const auto refused = [&](const std::vector<std::uint64_t>& rows,
                           const std::vector<std::uint64_t>& cols,
                           std::uint64_t extra = 0) {
    write_cell(0, rows, cols, x, extra);
    const std::string error = error_of(fs, ctx);
    fs.remove("/inv/AINV/A.0");
    return error.find("/inv/AINV/A.0") != std::string::npos;
  };
  EXPECT_TRUE(refused({0, 2, 6}, {0, 2, 4}));  // a row id >= n
  EXPECT_TRUE(refused({0, 2, 4}, {0, 9, 4}));  // a column id >= n
  EXPECT_TRUE(refused({0, 1, 2, 3, 4, 5, 0}, {0}));  // K1 > n
  EXPECT_TRUE(refused({0, 2, 4}, {0, 2, 4}, /*extra=*/1));  // size mismatch
  EXPECT_FALSE(refused({0, 2, 4}, {0, 2, 4}));
}

}  // namespace
}  // namespace mri::core

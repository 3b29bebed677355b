// The final job's (§5.4) staircase product U⁻¹·L⁻¹ against a dense matmul
// of the same slices, for every reducer cell of the block-wrap grid and of
// the row-band baseline.
#include "core/inverse_job.hpp"

#include <gtest/gtest.h>

#include <tuple>

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

}  // namespace
}  // namespace mri::core

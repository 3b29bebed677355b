// Algorithm 1 (single-node LU with partial pivoting): reconstruction,
// pivoting behaviour, singular detection, cost model.
#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri {
namespace {

void expect_reconstructs(const Matrix& a, double tol) {
  const LuResult lu = lu_decompose(a);
  const Matrix pa = lu.perm.apply_to_rows(a);
  EXPECT_LT(max_abs_diff(matmul(lu.unit_lower(), lu.upper()), pa), tol);
}

TEST(Lu, KnownTwoByTwo) {
  // A = [[0, 1], [2, 3]] forces a pivot swap.
  Matrix a(2, 2, {0, 1, 2, 3});
  const LuResult lu = lu_decompose(a);
  EXPECT_EQ(lu.perm[0], 1);
  EXPECT_EQ(lu.perm[1], 0);
  expect_reconstructs(a, 1e-15);
}

TEST(Lu, ReconstructsRandom) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    expect_reconstructs(random_matrix(40, seed), 1e-10);
  }
}

TEST(Lu, ReconstructsPivotHostile) {
  expect_reconstructs(random_pivot_hostile(40, /*seed=*/1), 1e-8);
}

TEST(Lu, ReconstructsDiagonallyDominant) {
  const Matrix a = random_diagonally_dominant(32, /*seed=*/2);
  const LuResult lu = lu_decompose(a);
  expect_reconstructs(a, 1e-11);
}

TEST(Lu, UnitLowerHasUnitDiagonal) {
  const LuResult lu = lu_decompose(random_matrix(16, /*seed=*/3));
  const Matrix l = lu.unit_lower();
  const Matrix u = lu.upper();
  for (Index i = 0; i < 16; ++i) {
    EXPECT_EQ(l(i, i), 1.0);
    for (Index j = i + 1; j < 16; ++j) EXPECT_EQ(l(i, j), 0.0);
    for (Index j = 0; j < i; ++j) EXPECT_EQ(u(i, j), 0.0);
  }
}

TEST(Lu, PivotingPicksLargestMagnitude) {
  // With pivoting, all |L| entries are <= 1.
  const LuResult lu = lu_decompose(random_matrix(32, /*seed=*/4));
  const Matrix l = lu.unit_lower();
  for (Index i = 0; i < 32; ++i)
    for (Index j = 0; j < i; ++j) EXPECT_LE(std::abs(l(i, j)), 1.0 + 1e-15);
}

TEST(Lu, PanelAtAColumnOffsetMatchesTheFullMatrix) {
  // pdgetrf factors a panel inside a rank's slab, where its first column
  // is not its first row. Global columns [8, 16), at local columns [4, 12)
  // of a slab between other columns, factor over rows [8, 24) with the
  // same pivots and bytes as on the full matrix, and the row swaps reach
  // every column of the slab.
  const Index n = 24, w = 8, row = 8;
  Matrix full = random_pivot_hostile(n, /*seed=*/3);
  Matrix slab(n, 16);
  slab.set_block(0, 0, full.block(0, n, 0, 4));
  slab.set_block(0, 4, full.block(0, n, 8, 16));
  slab.set_block(0, 12, full.block(0, n, 20, 24));
  std::vector<Index> ipiv_full(w), ipiv_slab(w);
  lu_factor_panel(&full, row, row, w, ipiv_full.data());
  lu_factor_panel(&slab, row, 4, w, ipiv_slab.data());
  EXPECT_EQ(ipiv_slab, ipiv_full);
  EXPECT_NE(ipiv_full[0], row);  // the first step swaps rows
  EXPECT_EQ(slab.block(0, n, 0, 4), full.block(0, n, 0, 4));
  EXPECT_EQ(slab.block(0, n, 4, 12), full.block(0, n, 8, 16));
  EXPECT_EQ(slab.block(0, n, 12, 16), full.block(0, n, 20, 24));
}

TEST(Lu, SingularThrows) {
  Matrix a(3, 3, {1, 2, 3, 2, 4, 6, 1, 1, 1});  // row1 = 2*row0
  EXPECT_THROW(lu_decompose(a), NumericalError);
  EXPECT_THROW(lu_decompose(Matrix(4, 4)), NumericalError);  // zero matrix
}

TEST(Lu, NonSquareThrows) { EXPECT_THROW(lu_decompose(Matrix(3, 4)), InvalidArgument); }

TEST(Lu, OneByOne) {
  const LuResult lu = lu_decompose(Matrix(1, 1, {5.0}));
  EXPECT_EQ(lu.packed(0, 0), 5.0);
  EXPECT_TRUE(lu.perm.is_identity());
}

TEST(Lu, CostIsCubicOverThree) {
  const IoStats io = lu_cost(300);
  EXPECT_EQ(io.mults, 300ull * 300 * 300 / 3);
  EXPECT_EQ(io.adds, io.mults);
}

}  // namespace
}  // namespace mri

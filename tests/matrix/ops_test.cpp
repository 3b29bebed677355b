#include "matrix/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "matrix/generate.hpp"

namespace mri {
namespace {

TEST(Ops, MatmulKnownValues) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = matmul(a, b);
  EXPECT_EQ(c, Matrix(2, 2, {58, 64, 139, 154}));
}

TEST(Ops, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), InvalidArgument);
  MatmulOptions bt;
  bt.transposed_b = true;
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(5, 4), bt), InvalidArgument);
}

TEST(Ops, MatmulByIdentity) {
  const Matrix a = random_matrix(17, 23, /*seed=*/1, -5, 5);
  EXPECT_LT(max_abs_diff(matmul(a, Matrix::identity(23)), a), 1e-12);
  EXPECT_LT(max_abs_diff(matmul(Matrix::identity(17), a), a), 1e-12);
}

class MultiplyVariants : public ::testing::TestWithParam<Index> {};

TEST_P(MultiplyVariants, AllBackendsAgree) {
  const Index n = GetParam();
  const Matrix a = random_matrix(n, n + 3, /*seed=*/n, -1, 1);
  const Matrix b = random_matrix(n + 3, n + 1, /*seed=*/n + 99, -1, 1);
  const Matrix fast = matmul(a, b);
  MatmulOptions naive_opts;
  naive_opts.backend = kernels::Backend::kNaive;
  const Matrix naive = matmul(a, b, naive_opts);
  MatmulOptions bt_opts;
  bt_opts.transposed_b = true;
  const Matrix via_t = matmul(a, transpose(b), bt_opts);
  EXPECT_LT(max_abs_diff(fast, naive), 1e-10 * static_cast<double>(n));
  EXPECT_LT(max_abs_diff(fast, via_t), 1e-10 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MultiplyVariants,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 64));

class MultiplyProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiplyProperties, Associativity) {
  const std::uint64_t seed = GetParam();
  const Matrix a = random_matrix(9, 7, seed, -1, 1);
  const Matrix b = random_matrix(7, 11, seed + 1, -1, 1);
  const Matrix c = random_matrix(11, 5, seed + 2, -1, 1);
  EXPECT_LT(max_abs_diff(matmul(matmul(a, b), c), matmul(a, matmul(b, c))),
            1e-11);
}

TEST_P(MultiplyProperties, TransposeOfProduct) {
  const std::uint64_t seed = GetParam();
  const Matrix a = random_matrix(8, 6, seed, -1, 1);
  const Matrix b = random_matrix(6, 10, seed + 5, -1, 1);
  // (AB)^T = B^T A^T
  EXPECT_LT(max_abs_diff(transpose(matmul(a, b)),
                         matmul(transpose(b), transpose(a))),
            1e-12);
}

TEST_P(MultiplyProperties, DistributesOverAddition) {
  const std::uint64_t seed = GetParam();
  const Matrix a = random_matrix(6, 6, seed, -1, 1);
  const Matrix b = random_matrix(6, 6, seed + 1, -1, 1);
  const Matrix c = random_matrix(6, 6, seed + 2, -1, 1);
  EXPECT_LT(max_abs_diff(matmul(a, add(b, c)),
                         add(matmul(a, b), matmul(a, c))),
            1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiplyProperties,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(Ops, MatmulIntoAccumulates) {
  const Matrix a = random_matrix(5, 5, 1, -1, 1);
  const Matrix b = random_matrix(5, 5, 2, -1, 1);
  Matrix c = random_matrix(5, 5, 3, -1, 1);
  const Matrix expected = add(c, matmul(a, b));
  matmul_into(a, b, &c);
  EXPECT_LT(max_abs_diff(c, expected), 1e-12);
}

TEST(Ops, MatmulIntoModes) {
  const Matrix a = random_matrix(4, 6, 11, -1, 1);
  const Matrix b = random_matrix(6, 3, 12, -1, 1);
  const Matrix product = matmul(a, b);
  Matrix c = random_matrix(4, 3, 13, -1, 1);
  const Matrix orig = c;
  matmul_into(a, b, &c, kernels::GemmMode::kAssign);
  EXPECT_LT(max_abs_diff(c, product), 1e-12);
  c = orig;
  matmul_into(a, b, &c, kernels::GemmMode::kSubtract);
  EXPECT_LT(max_abs_diff(c, subtract(orig, product)), 1e-12);
}

TEST(Ops, MatmulIntoShapeMismatchThrows) {
  const Matrix a = random_matrix(4, 6, 14, -1, 1);
  const Matrix b = random_matrix(6, 3, 15, -1, 1);
  Matrix wrong(3, 3);
  EXPECT_THROW(matmul_into(a, b, &wrong), InvalidArgument);
}

TEST(Ops, AddSubtractRoundTrip) {
  const Matrix a = random_matrix(7, 9, 4, -1, 1);
  const Matrix b = random_matrix(7, 9, 5, -1, 1);
  EXPECT_LT(max_abs_diff(subtract(add(a, b), b), a), 1e-15);
}

TEST(Ops, SubtractInPlace) {
  Matrix a = random_matrix(4, 4, 6, -1, 1);
  const Matrix orig = a;
  const Matrix b = random_matrix(4, 4, 7, -1, 1);
  subtract_in_place(&a, b);
  EXPECT_LT(max_abs_diff(a, subtract(orig, b)), 1e-15);
}

TEST(Ops, TransposeIsInvolution) {
  const Matrix a = random_matrix(6, 11, 8, -1, 1);
  EXPECT_EQ(transpose(transpose(a)), a);
}

TEST(Ops, TransposeMatchesElementLoop) {
  // Empty, single-row, single-column, partial-tile and tall shapes.
  const std::pair<Index, Index> shapes[] = {
      {0, 5}, {1, 300}, {300, 1}, {97, 130}, {2048, 33}};
  for (const auto& [rows, cols] : shapes) {
    const Matrix a = random_matrix(rows, cols, 9, -1, 1);
    Matrix want(cols, rows);
    for (Index i = 0; i < rows; ++i)
      for (Index j = 0; j < cols; ++j) want(j, i) = a(i, j);
    EXPECT_EQ(transpose(a), want) << rows << "x" << cols;
  }
}

TEST(Ops, MaxAbs) {
  Matrix m(2, 2, {1, -7, 3, 2});
  EXPECT_EQ(max_abs(m), 7.0);
  EXPECT_EQ(max_abs(Matrix(3, 3)), 0.0);
}

TEST(Ops, NanPropagatesThroughMaxAbsAndResidual) {
  // std::max drops NaN; a NaN-poisoned inverse must never score 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Matrix poisoned(2, 2, {1, nan, 3, 2});
  EXPECT_TRUE(std::isnan(max_abs(poisoned)));
  EXPECT_TRUE(std::isnan(max_abs_diff(poisoned, Matrix(2, 2))));
  EXPECT_TRUE(std::isnan(max_abs_diff(Matrix(2, 2), poisoned)));
  // Exact everywhere except one NaN entry: every `< bound` gate must fail.
  const Matrix almost_identity(2, 2, {1, 0, 0, nan});
  EXPECT_FALSE(inversion_residual(Matrix::identity(2), almost_identity) <
               1e-8);
}

TEST(Ops, FrobeniusNorm) {
  Matrix m(2, 2, {3, 4, 0, 0});
  EXPECT_DOUBLE_EQ(frobenius_norm(m), 5.0);
}

TEST(Ops, InversionResidualOfExactInverse) {
  Matrix a(2, 2, {4, 7, 2, 6});
  Matrix inv(2, 2, {0.6, -0.7, -0.2, 0.4});
  EXPECT_LT(inversion_residual(a, inv), 1e-12);
}

TEST(Ops, InversionResidualDetectsWrongInverse) {
  Matrix a(2, 2, {4, 7, 2, 6});
  EXPECT_GT(inversion_residual(a, Matrix::identity(2)), 1.0);
}

TEST(Ops, KernelCostCountsFlops) {
  const IoStats io = kernels::kernel_cost(3, 4, 5);
  EXPECT_EQ(io.mults, 60u);
  EXPECT_EQ(io.adds, 60u);
}

}  // namespace
}  // namespace mri

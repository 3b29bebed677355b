// Eq. 4 triangular inversion and the Eq. 6 substitution solves, checked
// against scalar oracles: the column-by-column Eq. 4 loop, back substitution
// for U⁻¹ and the row-by-row right solve X·U = B.
#include "linalg/triangular.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include "common/random.hpp"
#include "linalg/kernels/kernel.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri {
namespace {

// ---- scalar oracles ---------------------------------------------------------

/// Eq. 4 column by column: x_j = 1/l_jj, then for i > j
/// x_i = −(Σ_{j ≤ k < i} l_ik·x_k)/l_ii; rows above j stay zero.
Matrix eq4_oracle(const Matrix& l, const std::vector<Index>& columns) {
  const Index n = l.rows();
  Matrix out(n, static_cast<Index>(columns.size()));
  std::vector<double> col(static_cast<std::size_t>(n));
  for (std::size_t c = 0; c < columns.size(); ++c) {
    const Index j = columns[c];
    std::fill(col.begin(), col.end(), 0.0);
    col[static_cast<std::size_t>(j)] = 1.0 / l(j, j);
    for (Index i = j + 1; i < n; ++i) {
      double sum = 0.0;
      for (Index k = j; k < i; ++k) {
        sum += l(i, k) * col[static_cast<std::size_t>(k)];
      }
      col[static_cast<std::size_t>(i)] = -sum / l(i, i);
    }
    for (Index i = 0; i < n; ++i) {
      out(i, static_cast<Index>(c)) = col[static_cast<std::size_t>(i)];
    }
  }
  return out;
}

/// U⁻¹ by back substitution, column by column.
Matrix invert_upper_oracle(const Matrix& u) {
  const Index n = u.rows();
  Matrix inv(n, n);
  for (Index j = 0; j < n; ++j) {
    inv(j, j) = 1.0 / u(j, j);
    for (Index i = j - 1; i >= 0; --i) {
      double sum = 0.0;
      for (Index k = i + 1; k <= j; ++k) sum += u(i, k) * inv(k, j);
      inv(i, j) = -sum / u(i, i);
    }
  }
  return inv;
}

/// X·U = B row by row: left-to-right substitution.
Matrix solve_upper_right_oracle(const Matrix& u, const Matrix& b) {
  const Index n = u.rows();
  Matrix x = b;
  for (Index i = 0; i < b.rows(); ++i) {
    for (Index j = 0; j < n; ++j) {
      double sum = x(i, j);
      for (Index k = 0; k < j; ++k) sum -= x(i, k) * u(k, j);
      x(i, j) = sum / u(j, j);
    }
  }
  return x;
}

/// Lower-triangular factor whose inverse stays O(1) at any order:
/// off-diagonal entries in ±1/n, diagonal 1 (unit) or ±[1, 2).
Matrix tame_lower(Index n, bool unit_diag, std::uint64_t seed) {
  Matrix l(n, n);
  Xoshiro256 rng(seed);
  const double scale = 1.0 / static_cast<double>(n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) l(i, j) = rng.uniform(-scale, scale);
    const double sign = rng.next_double() < 0.5 ? -1.0 : 1.0;
    l(i, i) = unit_diag ? 1.0 : sign * rng.uniform(1.0, 2.0);
  }
  return l;
}

/// Selects the process default kernel backend for one scope (Eq. 4 runs on
/// the default context).
class ScopedDefaultBackend {
 public:
  explicit ScopedDefaultBackend(kernels::Backend backend)
      : saved_(kernels::default_backend()) {
    kernels::set_default_backend(backend);
  }
  ~ScopedDefaultBackend() { kernels::set_default_backend(saved_); }
  ScopedDefaultBackend(const ScopedDefaultBackend&) = delete;
  ScopedDefaultBackend& operator=(const ScopedDefaultBackend&) = delete;

 private:
  kernels::Backend saved_;
};

// ---- tests ------------------------------------------------------------------

class TriangularSweep : public ::testing::TestWithParam<Index> {};

TEST_P(TriangularSweep, LowerInverse) {
  const Index n = GetParam();
  const Matrix l = random_unit_lower_triangular(n, /*seed=*/n);
  const Matrix inv = invert_lower(l);
  EXPECT_LT(max_abs_diff(matmul(l, inv), Matrix::identity(n)), 1e-9);
  EXPECT_LT(max_abs_diff(matmul(inv, l), Matrix::identity(n)), 1e-9);
}

TEST_P(TriangularSweep, UpperInverseBothWays) {
  const Index n = GetParam();
  const Matrix u = random_upper_triangular(n, /*seed=*/n + 1);
  const Matrix via_t = invert_upper_via_transpose(u);
  EXPECT_LT(max_abs_diff(via_t, invert_upper_oracle(u)), 1e-9);
  EXPECT_LT(max_abs_diff(matmul(u, via_t), Matrix::identity(n)), 1e-8);
}

TEST_P(TriangularSweep, SolveLower) {
  const Index n = GetParam();
  const Matrix l = random_unit_lower_triangular(n, /*seed=*/n + 2);
  const Matrix b = random_matrix(n, 5, /*seed=*/n + 3, -1, 1);
  const Matrix x = solve_lower(l, b);
  EXPECT_LT(max_abs_diff(matmul(l, x), b), 1e-9);
}

TEST_P(TriangularSweep, SolveUpperRight) {
  const Index n = GetParam();
  const Matrix u = random_upper_triangular(n, /*seed=*/n + 4);
  const Matrix b = random_matrix(5, n, /*seed=*/n + 5, -1, 1);
  const Matrix x = solve_upper_right_from_transpose(transpose(u), b);
  EXPECT_LT(max_abs_diff(matmul(x, u), b), 1e-8);
  EXPECT_LT(max_abs_diff(x, solve_upper_right_oracle(u, b)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TriangularSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 16, 33, 64));

// Every interleaved slice the §5.4 mappers compute (workers 1–8, every s)
// on every backend, against the scalar Eq. 4 loop; orders straddle the
// TRSM's 64-row diagonal blocks.
class Eq4Oracle
    : public ::testing::TestWithParam<std::tuple<Index, bool>> {};

TEST_P(Eq4Oracle, EveryInterleavedSliceOnEveryBackend) {
  const auto [n, unit_diag] = GetParam();
  const Matrix l = tame_lower(n, unit_diag, /*seed=*/n * 2 + unit_diag);
  std::vector<Index> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), Index{0});
  const Matrix oracle = eq4_oracle(l, all);
  const double tol = 1e-13 * static_cast<double>(n + 1);
  for (const kernels::Backend backend :
       {kernels::Backend::kNaive, kernels::Backend::kTiled,
        kernels::Backend::kSimd, kernels::Backend::kThreaded}) {
    const ScopedDefaultBackend scoped(backend);
    for (int workers = 1; workers <= 8; ++workers) {
      for (int s = 0; s < workers; ++s) {
        std::vector<Index> ids;
        for (Index k = s; k < n; k += workers) ids.push_back(k);
        const Matrix cols = invert_lower_columns(l, ids);
        ASSERT_EQ(cols.rows(), n);
        ASSERT_EQ(cols.cols(), static_cast<Index>(ids.size()));
        double worst = 0.0;
        Index nonzero_above = 0;
        for (std::size_t c = 0; c < ids.size(); ++c) {
          const auto cc = static_cast<Index>(c);
          for (Index i = 0; i < n; ++i) {
            if (i < ids[c]) {
              if (cols(i, cc) != 0.0) ++nonzero_above;
            } else {
              worst = std::max(
                  worst, std::abs(cols(i, cc) - oracle(i, ids[c])));
            }
          }
        }
        EXPECT_LT(worst, tol) << kernels::backend_name(backend)
                              << " workers=" << workers << " s=" << s;
        EXPECT_EQ(nonzero_above, 0) << kernels::backend_name(backend)
                                    << " workers=" << workers << " s=" << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, Eq4Oracle,
    ::testing::Combine(::testing::Values(1, 63, 64, 65, 130, 300),
                       ::testing::Bool()));

TEST(Triangular, NonUnitLowerDiagonal) {
  Matrix l(2, 2, {2, 0, 3, 4});
  const Matrix inv = invert_lower(l);
  EXPECT_LT(max_abs_diff(matmul(l, inv), Matrix::identity(2)), 1e-15);
  EXPECT_DOUBLE_EQ(inv(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(inv(1, 1), 0.25);
}

TEST(Triangular, SingularDiagonalThrows) {
  Matrix l(2, 2, {1, 0, 3, 0});
  EXPECT_THROW(invert_lower(l), InvalidArgument);
  EXPECT_THROW(solve_lower(l, Matrix(2, 1)), InvalidArgument);
}

TEST(Triangular, ColumnSubsetMatchesFullInverse) {
  const Matrix l = random_unit_lower_triangular(24, /*seed=*/9);
  const Matrix full = invert_lower(l);
  // The §5.4 interleaved pattern: every 4th column starting at 1.
  std::vector<Index> ids;
  for (Index k = 1; k < 24; k += 4) ids.push_back(k);
  const Matrix cols = invert_lower_columns(l, ids);
  ASSERT_EQ(cols.cols(), static_cast<Index>(ids.size()));
  for (std::size_t c = 0; c < ids.size(); ++c) {
    for (Index i = 0; i < 24; ++i) {
      EXPECT_NEAR(cols(i, static_cast<Index>(c)), full(i, ids[c]), 1e-12);
    }
  }
}

TEST(Triangular, ColumnSubsetInAnyOrder) {
  // Descending and repeated ids are still answered column for column.
  const Matrix l = tame_lower(70, /*unit_diag=*/false, /*seed=*/8);
  const std::vector<Index> ids = {69, 3, 64, 3, 0};
  const Matrix cols = invert_lower_columns(l, ids);
  const Matrix oracle = eq4_oracle(l, ids);
  EXPECT_LT(max_abs_diff(cols, oracle), 1e-12);
  for (std::size_t c = 0; c < ids.size(); ++c) {
    for (Index i = 0; i < ids[c]; ++i) {
      EXPECT_EQ(cols(i, static_cast<Index>(c)), 0.0);
    }
  }
}

TEST(Triangular, ColumnSubsetEmpty) {
  const Matrix l = random_unit_lower_triangular(4, /*seed=*/10);
  const Matrix cols = invert_lower_columns(l, {});
  EXPECT_EQ(cols.rows(), 4);
  EXPECT_EQ(cols.cols(), 0);
}

TEST(Triangular, ColumnSubsetOutOfRangeThrows) {
  const Matrix l = random_unit_lower_triangular(4, /*seed=*/11);
  EXPECT_THROW(invert_lower_columns(l, {4}), InvalidArgument);
}

TEST(Triangular, SolveShapeMismatchThrows) {
  const Matrix l = random_unit_lower_triangular(4, /*seed=*/12);
  EXPECT_THROW(solve_lower(l, Matrix(5, 2)), InvalidArgument);
  const Matrix u = random_upper_triangular(4, /*seed=*/13);
  EXPECT_THROW(solve_upper_right_from_transpose(transpose(u), Matrix(2, 5)),
               InvalidArgument);
}

TEST(Triangular, CostModels) {
  EXPECT_EQ(triangular_inverse_cost(60).mults, 60ull * 60 * 60 / 6);
  EXPECT_EQ(triangular_solve_cost(10, 4).mults, 10ull * 10 * 4 / 2);
}

}  // namespace
}  // namespace mri

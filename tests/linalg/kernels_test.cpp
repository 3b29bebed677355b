// The kernel engine: cross-backend equivalence, GEMM modes, blocked TRSM
// against reference substitution, determinism, threading and counters.
#include "linalg/kernels/kernel.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri::kernels {
namespace {

Matrix gemm_reference(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i)
    for (Index k = 0; k < a.cols(); ++k)
      for (Index j = 0; j < b.cols(); ++j) c(i, j) += a(i, k) * b(k, j);
  return c;
}

Matrix run_gemm(Backend backend, GemmMode mode, const Matrix& a,
                const Matrix& b, Matrix c) {
  KernelContext ctx;
  ctx.backend = backend;
  ctx.gemm(mode, a.rows(), b.cols(), a.cols(), a.data().data(), a.cols(),
           b.data().data(), b.cols(), c.data().data(), c.cols());
  return c;
}

Matrix run_gemm_bt(Backend backend, GemmMode mode, const Matrix& a,
                   const Matrix& bt, Matrix c) {
  KernelContext ctx;
  ctx.backend = backend;
  ctx.gemm_bt(mode, a.rows(), bt.rows(), a.cols(), a.data().data(), a.cols(),
              bt.data().data(), bt.cols(), c.data().data(), c.cols());
  return c;
}

const std::vector<Backend> kAllBackends = {Backend::kNaive, Backend::kTiled,
                                           Backend::kSimd, Backend::kThreaded};

TEST(KernelBackend, NamesRoundTrip) {
  for (const Backend b : kAllBackends) {
    Backend parsed;
    ASSERT_TRUE(parse_backend(backend_name(b), &parsed)) << backend_name(b);
    EXPECT_EQ(parsed, b);
  }
  Backend out = Backend::kNaive;
  EXPECT_FALSE(parse_backend("blas", &out));
  EXPECT_EQ(out, Backend::kNaive);  // untouched on failure
}

TEST(KernelBackend, AvailabilityAndDefault) {
  EXPECT_TRUE(backend_available(Backend::kNaive));
  EXPECT_TRUE(backend_available(Backend::kTiled));
  EXPECT_TRUE(backend_available(Backend::kThreaded));
  // kSimd may be unavailable off-x86; the default must always be runnable.
  EXPECT_TRUE(backend_available(default_backend()));
  const Backend saved = default_backend();
  set_default_backend(Backend::kTiled);
  EXPECT_EQ(default_backend(), Backend::kTiled);
  set_default_backend(saved);
}

// Non-tile-multiple shapes on purpose: 129 x 65 · 65 x 31 exercises every
// edge strip of the tiled and SIMD microkernels.
class GemmShapes
    : public ::testing::TestWithParam<std::tuple<Index, Index, Index>> {};

TEST_P(GemmShapes, BackendsMatchReferenceWithinTolerance) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, /*seed=*/m + k, -1, 1);
  const Matrix b = random_matrix(k, n, /*seed=*/k + n + 7, -1, 1);
  const Matrix ref = gemm_reference(a, b);
  const double tol = 1e-12 * static_cast<double>(k + 1);
  for (const Backend backend : kAllBackends) {
    const Matrix c = run_gemm(backend, GemmMode::kAssign, a, b, Matrix(m, n));
    EXPECT_LT(max_abs_diff(c, ref), tol) << backend_name(backend);
  }
}

TEST_P(GemmShapes, TransposedBMatchesGemm) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, /*seed=*/m + k + 1, -1, 1);
  const Matrix b = random_matrix(k, n, /*seed=*/k + n + 8, -1, 1);
  const Matrix bt = transpose(b);
  const Matrix ref = gemm_reference(a, b);
  const double tol = 1e-12 * static_cast<double>(k + 1);
  for (const Backend backend : kAllBackends) {
    const Matrix c =
        run_gemm_bt(backend, GemmMode::kAssign, a, bt, Matrix(m, n));
    EXPECT_LT(max_abs_diff(c, ref), tol) << backend_name(backend);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple<Index, Index, Index>(1, 1, 1),
                      std::make_tuple<Index, Index, Index>(4, 8, 8),
                      std::make_tuple<Index, Index, Index>(3, 5, 2),
                      std::make_tuple<Index, Index, Index>(129, 65, 31),
                      std::make_tuple<Index, Index, Index>(64, 300, 17),
                      std::make_tuple<Index, Index, Index>(31, 1, 9),
                      std::make_tuple<Index, Index, Index>(97, 257, 33)));

TEST(Gemm, ModesCombineCorrectly) {
  const Matrix a = random_matrix(13, 17, 1, -1, 1);
  const Matrix b = random_matrix(17, 11, 2, -1, 1);
  const Matrix product = gemm_reference(a, b);
  const Matrix c0 = random_matrix(13, 11, 3, -1, 1);
  for (const Backend backend : kAllBackends) {
    const Matrix assigned = run_gemm(backend, GemmMode::kAssign, a, b, c0);
    const Matrix accumulated =
        run_gemm(backend, GemmMode::kAccumulate, a, b, c0);
    const Matrix subtracted = run_gemm(backend, GemmMode::kSubtract, a, b, c0);
    EXPECT_LT(max_abs_diff(assigned, product), 1e-10) << backend_name(backend);
    EXPECT_LT(max_abs_diff(accumulated, add(c0, product)), 1e-10)
        << backend_name(backend);
    EXPECT_LT(max_abs_diff(subtracted, subtract(c0, product)), 1e-10)
        << backend_name(backend);
  }
}

TEST(Gemm, AssignZerosCWhenKIsZero) {
  Matrix c = random_matrix(5, 4, 9, -1, 1);
  KernelContext ctx;
  ctx.gemm(GemmMode::kAssign, 5, 4, 0, nullptr, 1, nullptr, 1,
           c.data().data(), c.cols());
  EXPECT_EQ(max_abs(c), 0.0);
}

TEST(Gemm, EachBackendIsDeterministic) {
  const Matrix a = random_matrix(65, 129, 4, -1, 1);
  const Matrix b = random_matrix(129, 33, 5, -1, 1);
  for (const Backend backend : kAllBackends) {
    const Matrix first =
        run_gemm(backend, GemmMode::kAssign, a, b, Matrix(65, 33));
    const Matrix second =
        run_gemm(backend, GemmMode::kAssign, a, b, Matrix(65, 33));
    EXPECT_EQ(first, second) << backend_name(backend);  // bitwise
  }
}

TEST(Gemm, ThreadedMatchesSerialBitwise) {
  // kThreaded partitions rows over the serial backend with chunks aligned
  // to the microkernel's row group, so the arithmetic per row is identical.
  const Matrix a = random_matrix(67, 130, 6, -1, 1);
  const Matrix b = random_matrix(130, 29, 7, -1, 1);
  const Backend serial =
      backend_available(Backend::kSimd) ? Backend::kSimd : Backend::kTiled;
  const Matrix expected =
      run_gemm(serial, GemmMode::kAssign, a, b, Matrix(67, 29));
  KernelContext ctx;
  ctx.backend = Backend::kThreaded;
  for (const int threads : {1, 2, 3, 8}) {
    ctx.threads = threads;
    Matrix c(67, 29);
    ctx.gemm(GemmMode::kAssign, 67, 29, 130, a.data().data(), a.cols(),
             b.data().data(), b.cols(), c.data().data(), c.cols());
    EXPECT_EQ(c, expected) << threads << " threads";
  }
}

Matrix trsm_lower_reference(bool unit_diag, const Matrix& l, const Matrix& b) {
  Matrix x = b;
  for (Index i = 0; i < l.rows(); ++i) {
    for (Index j = 0; j < b.cols(); ++j) {
      double sum = x(i, j);
      for (Index p = 0; p < i; ++p) sum -= l(i, p) * x(p, j);
      x(i, j) = unit_diag ? sum : sum / l(i, i);
    }
  }
  return x;
}

class TrsmShapes
    : public ::testing::TestWithParam<std::tuple<Index, Index, bool>> {};

TEST_P(TrsmShapes, LowerLeftMatchesReference) {
  const auto [m, n, unit_diag] = GetParam();
  Matrix l = random_matrix(m, m, /*seed=*/m + n, -1, 1);
  for (Index i = 0; i < m; ++i) l(i, i) = 2.0 + static_cast<double>(i % 3);
  const Matrix b = random_matrix(m, n, /*seed=*/m + n + 5, -1, 1);
  const Matrix ref = trsm_lower_reference(unit_diag, l, b);
  const double tol = 1e-9 * static_cast<double>(m + 1);
  for (const Backend backend : kAllBackends) {
    Matrix x = b;
    KernelContext ctx;
    ctx.backend = backend;
    ctx.trsm_lower_left(unit_diag, m, n, l.data().data(), l.cols(),
                        x.data().data(), x.cols());
    EXPECT_LT(max_abs_diff(x, ref), tol) << backend_name(backend);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TrsmShapes,
    ::testing::Values(std::make_tuple<Index, Index, bool>(1, 1, false),
                      std::make_tuple<Index, Index, bool>(1, 7, true),
                      std::make_tuple<Index, Index, bool>(5, 3, false),
                      std::make_tuple<Index, Index, bool>(64, 64, true),
                      std::make_tuple<Index, Index, bool>(129, 31, false),
                      std::make_tuple<Index, Index, bool>(100, 1, true)));

TEST(Trsm, UpperRightFromTransposeSolves) {
  // X · U = B with ut = Uᵀ: check A·X reconstructs B for every backend, on
  // a blocked-path size (> one 64-wide diagonal block) and a tiny one.
  for (const Index n : {Index{3}, Index{100}}) {
    const Index m = n == 3 ? 2 : 37;
    Matrix ut = random_matrix(n, n, /*seed=*/n, -1, 1);
    for (Index i = 0; i < n; ++i) ut(i, i) = 3.0 + static_cast<double>(i % 4);
    const Matrix b = random_matrix(m, n, /*seed=*/n + 1, -1, 1);
    const Matrix u = transpose(ut);  // actual upper-triangular factor
    for (const Backend backend : kAllBackends) {
      Matrix x = b;
      KernelContext ctx;
      ctx.backend = backend;
      ctx.trsm_upper_right_from_transpose(m, n, ut.data().data(), ut.cols(),
                                          x.data().data(), x.cols());
      Matrix xu(m, n);
      // Only the upper triangle of u participates.
      for (Index i = 0; i < m; ++i)
        for (Index k = 0; k < n; ++k)
          for (Index j = k; j < n; ++j) xu(i, j) += x(i, k) * u(k, j);
      EXPECT_LT(max_abs_diff(xu, b), 1e-8 * static_cast<double>(n))
          << backend_name(backend) << " n=" << n;
    }
  }
}

TEST(KernelCounters, CountCallsAndFlops) {
  const Matrix a = random_matrix(8, 6, 1, -1, 1);
  const Matrix b = random_matrix(6, 10, 2, -1, 1);
  const KernelCounters before = counters_snapshot();
  run_gemm(Backend::kTiled, GemmMode::kAssign, a, b, Matrix(8, 10));
  Matrix l = random_matrix(5, 5, 3, -1, 1);
  for (Index i = 0; i < 5; ++i) l(i, i) = 2.0;
  Matrix x = random_matrix(5, 4, 4, -1, 1);
  KernelContext ctx;
  ctx.trsm_lower_left(false, 5, 4, l.data().data(), 5, x.data().data(), 4);
  const KernelCounters delta = counters_snapshot() - before;
  EXPECT_EQ(delta.gemm_calls, 1u);  // TRSM-internal GEMMs are not re-counted
  EXPECT_EQ(delta.trsm_calls, 1u);
  EXPECT_EQ(delta.flops, 2ull * 8 * 10 * 6 + 5ull * 5 * 4);
  EXPECT_GE(delta.seconds, 0.0);
}

TEST(KernelCost, MatchesGemmAccounting) {
  const IoStats io = kernel_cost(7, 9, 11);
  EXPECT_EQ(io.mults, 7ull * 9 * 11);
  EXPECT_EQ(io.adds, 7ull * 9 * 11);
}

}  // namespace
}  // namespace mri::kernels

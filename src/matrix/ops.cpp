#include "matrix/ops.hpp"

#include <algorithm>
#include <cmath>

namespace mri {

namespace {

void check_matmul_shapes(const Matrix& a, const Matrix& b,
                         const MatmulOptions& opts) {
  if (opts.transposed_b) {
    MRI_REQUIRE(a.cols() == b.cols(), "matmul shape mismatch: "
                                          << a.rows() << "x" << a.cols()
                                          << " · (" << b.rows() << "x"
                                          << b.cols() << ")^T");
  } else {
    MRI_REQUIRE(a.cols() == b.rows(), "matmul shape mismatch: "
                                          << a.rows() << "x" << a.cols()
                                          << " · " << b.rows() << "x"
                                          << b.cols());
  }
}

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b, const MatmulOptions& opts) {
  check_matmul_shapes(a, b, opts);
  Matrix c(a.rows(), opts.transposed_b ? b.rows() : b.cols());
  matmul_into(a, b, &c, kernels::GemmMode::kAssign, opts);
  return c;
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix* c,
                 kernels::GemmMode mode, const MatmulOptions& opts) {
  check_matmul_shapes(a, b, opts);
  MRI_REQUIRE(c != nullptr, "null matmul output");
  const Index out_cols = opts.transposed_b ? b.rows() : b.cols();
  MRI_REQUIRE(c->rows() == a.rows() && c->cols() == out_cols,
              "accumulator shape mismatch");
  kernels::KernelContext ctx{opts.backend, opts.threads};
  if (opts.transposed_b) {
    ctx.gemm_bt(mode, a.rows(), b.rows(), a.cols(), a.data().data(), a.cols(),
                b.data().data(), b.cols(), c->data().data(), c->cols());
  } else {
    ctx.gemm(mode, a.rows(), b.cols(), a.cols(), a.data().data(), a.cols(),
             b.data().data(), b.cols(), c->data().data(), c->cols());
  }
}

Matrix add(const Matrix& a, const Matrix& b) {
  MRI_REQUIRE(a.same_shape(b), "add shape mismatch");
  Matrix c = a;
  auto cd = c.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < cd.size(); ++i) cd[i] += bd[i];
  return c;
}

Matrix subtract(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  subtract_in_place(&c, b);
  return c;
}

void subtract_in_place(Matrix* a, const Matrix& b) {
  MRI_REQUIRE(a->same_shape(b), "subtract shape mismatch");
  auto ad = a->data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) ad[i] -= bd[i];
}

Matrix transpose(const Matrix& a) {
  // 32x32 tiles: each tile's 32 source and 32 destination rows stay in L1,
  // where a whole-row walk writes down a column of t one cache line apiece.
  constexpr Index kTile = 32;
  const Index rows = a.rows();
  const Index cols = a.cols();
  Matrix t(cols, rows);
  const double* src = a.data().data();
  double* dst = t.data().data();
  for (Index i0 = 0; i0 < rows; i0 += kTile) {
    const Index i1 = std::min(i0 + kTile, rows);
    for (Index j0 = 0; j0 < cols; j0 += kTile) {
      const Index j1 = std::min(j0 + kTile, cols);
      for (Index i = i0; i < i1; ++i) {
        for (Index j = j0; j < j1; ++j) dst[j * rows + i] = src[i * cols + j];
      }
    }
  }
  return t;
}

double max_abs(const Matrix& a) {
  double m = 0.0;
  for (double v : a.data()) {
    if (std::isnan(v)) return v;  // std::max would drop it
    m = std::max(m, std::abs(v));
  }
  return m;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  MRI_REQUIRE(a.same_shape(b), "max_abs_diff shape mismatch");
  double m = 0.0;
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    const double d = ad[i] - bd[i];
    if (std::isnan(d)) return d;  // std::max would drop it
    m = std::max(m, std::abs(d));
  }
  return m;
}

double inversion_residual(const Matrix& a, const Matrix& a_inv) {
  MRI_REQUIRE(a.square() && a.same_shape(a_inv),
              "inversion_residual expects square same-shape matrices");
  return max_abs_diff(Matrix::identity(a.rows()), matmul(a, a_inv));
}

double frobenius_norm(const Matrix& a) {
  double sum = 0.0;
  for (double v : a.data()) sum += v * v;
  return std::sqrt(sum);
}

}  // namespace mri

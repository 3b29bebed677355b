#include "linalg/qr.hpp"

#include <cmath>
#include <vector>

#include "linalg/triangular.hpp"
#include "matrix/ops.hpp"

namespace mri {

QrResult qr_decompose(const Matrix& a) {
  MRI_REQUIRE(a.square(), "qr_decompose expects a square matrix");
  const Index n = a.rows();
  Matrix r = a;
  Matrix q = Matrix::identity(n);
  std::vector<double> v(static_cast<std::size_t>(n));

  for (Index k = 0; k < n - 1; ++k) {
    // Householder vector for column k of the trailing block.
    double norm = 0.0;
    for (Index i = k; i < n; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;  // column already zero below diagonal

    const double alpha = r(k, k) >= 0.0 ? -norm : norm;
    double vnorm2 = 0.0;
    for (Index i = k; i < n; ++i) {
      v[static_cast<std::size_t>(i)] = r(i, k) - (i == k ? alpha : 0.0);
      vnorm2 += v[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
    }
    if (vnorm2 == 0.0) continue;
    const double beta = 2.0 / vnorm2;

    // R <- (I - beta v v^T) R on the trailing columns.
    for (Index j = k; j < n; ++j) {
      double dot = 0.0;
      for (Index i = k; i < n; ++i) dot += v[static_cast<std::size_t>(i)] * r(i, j);
      dot *= beta;
      for (Index i = k; i < n; ++i) r(i, j) -= dot * v[static_cast<std::size_t>(i)];
    }
    // Q <- Q (I - beta v v^T): accumulate the product of reflections.
    for (Index i = 0; i < n; ++i) {
      double dot = 0.0;
      for (Index j = k; j < n; ++j) dot += q(i, j) * v[static_cast<std::size_t>(j)];
      dot *= beta;
      for (Index j = k; j < n; ++j) q(i, j) -= dot * v[static_cast<std::size_t>(j)];
    }
  }

  // Zero out round-off below the diagonal of R.
  for (Index i = 1; i < n; ++i)
    for (Index j = 0; j < i; ++j) r(i, j) = 0.0;

  return QrResult{std::move(q), std::move(r)};
}

Matrix qr_invert(const Matrix& a) {
  QrResult qr = qr_decompose(a);
  for (Index i = 0; i < qr.r.rows(); ++i) {
    if (qr.r(i, i) == 0.0) {
      throw NumericalError("singular matrix in QR inversion at diagonal " +
                           std::to_string(i));
    }
  }
  return matmul(invert_upper_via_transpose(qr.r), transpose(qr.q));
}

std::int64_t qr_pipeline_steps(Index n) { return n; }

}  // namespace mri

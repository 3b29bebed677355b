#include "linalg/gauss_jordan.hpp"

#include <cmath>

namespace mri {

Matrix gauss_jordan_invert(Matrix a) {
  MRI_REQUIRE(a.square(), "gauss_jordan_invert expects a square matrix");
  const Index n = a.rows();
  Matrix inv = Matrix::identity(n);

  // Forward phase: reduce [A | I] so the left side becomes upper triangular
  // with unit diagonal.
  for (Index i = 0; i < n; ++i) {
    Index pivot = i;
    double best = std::abs(a(i, i));
    for (Index j = i + 1; j < n; ++j) {
      const double v = std::abs(a(j, i));
      if (v > best) {
        best = v;
        pivot = j;
      }
    }
    if (best == 0.0) {
      throw NumericalError("singular matrix in Gauss-Jordan at column " +
                           std::to_string(i));
    }
    if (pivot != i) {
      std::swap_ranges(a.row(i).begin(), a.row(i).end(), a.row(pivot).begin());
      std::swap_ranges(inv.row(i).begin(), inv.row(i).end(),
                       inv.row(pivot).begin());
    }
    const double scale = 1.0 / a(i, i);
    for (double& v : a.row(i)) v *= scale;
    for (double& v : inv.row(i)) v *= scale;
    for (Index j = i + 1; j < n; ++j) {
      const double factor = a(j, i);
      if (factor == 0.0) continue;
      for (Index k = i; k < n; ++k) a(j, k) -= factor * a(i, k);
      for (Index k = 0; k < n; ++k) inv(j, k) -= factor * inv(i, k);
    }
  }

  // Backward phase: clear above the diagonal, leaving [I | A^-1].
  for (Index i = n - 1; i >= 0; --i) {
    for (Index j = i - 1; j >= 0; --j) {
      const double factor = a(j, i);
      if (factor == 0.0) continue;
      a(j, i) = 0.0;
      for (Index k = 0; k < n; ++k) inv(j, k) -= factor * inv(i, k);
    }
  }
  return inv;
}

std::int64_t gauss_jordan_pipeline_steps(Index n) { return n; }

}  // namespace mri

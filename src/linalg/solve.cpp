#include "linalg/solve.hpp"

#include "linalg/kernels/kernel.hpp"
#include "linalg/triangular.hpp"
#include "matrix/ops.hpp"

namespace mri {

Matrix invert_via_lu(const Matrix& a) {
  LuResult lu = lu_decompose(a);
  const Matrix l_inv = invert_lower(lu.unit_lower());
  const Matrix u_inv = invert_upper_via_transpose(lu.upper());
  // A⁻¹ = U⁻¹ L⁻¹ P: column k of U⁻¹L⁻¹ lands at column S[k].
  return lu.perm.apply_to_columns(matmul(u_inv, l_inv));
}

Matrix solve_matrix(const Matrix& a, const Matrix& b) {
  MRI_REQUIRE(a.rows() == b.rows(), "solve shape mismatch: " << a.rows()
                                                             << " vs "
                                                             << b.rows());
  const LuResult lu = lu_decompose(a);
  // P·A·X = P·B  =>  L·U·X = P·B.
  Matrix x = lu.perm.apply_to_rows(b);
  lu_solve(lu.packed, &x);
  return x;
}

void lu_solve(const Matrix& packed, Matrix* b) {
  MRI_REQUIRE(packed.square() && packed.rows() == b->rows(),
              "lu_solve shape mismatch: " << packed.rows() << "x"
                                          << packed.cols() << " factors vs "
                                          << b->rows() << " rows");
  const Index n = packed.rows(), m = b->cols();
  kernels::KernelContext ctx;
  ctx.trsm_lower_left(/*unit_diag=*/true, n, m, packed.data().data(), n,
                      b->data().data(), m);
  // Back substitution with U, bottom row first.
  for (Index i = n - 1; i >= 0; --i) {
    double* xi = b->row(i).data();
    const double* ui = packed.row(i).data();
    for (Index k = i + 1; k < n; ++k) {
      const double uik = ui[k];
      if (uik == 0.0) continue;
      const double* xk = b->row(k).data();
      for (Index j = 0; j < m; ++j) xi[j] -= uik * xk[j];
    }
    const double inv_d = 1.0 / ui[i];
    for (Index j = 0; j < m; ++j) xi[j] *= inv_d;
  }
}

std::vector<double> solve(const Matrix& a, const std::vector<double>& b) {
  MRI_REQUIRE(static_cast<Index>(b.size()) == a.rows(),
              "solve vector length mismatch");
  Matrix bm(a.rows(), 1, std::vector<double>(b));
  Matrix x = solve_matrix(a, bm);
  std::vector<double> out(static_cast<std::size_t>(a.rows()));
  for (Index i = 0; i < a.rows(); ++i) out[static_cast<std::size_t>(i)] = x(i, 0);
  return out;
}

}  // namespace mri

#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/kernels/kernel.hpp"

namespace mri {

Matrix LuResult::unit_lower() const {
  const Index n = packed.rows();
  Matrix l(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) l(i, j) = packed(i, j);
    l(i, i) = 1.0;
  }
  return l;
}

Matrix LuResult::upper() const {
  const Index n = packed.rows();
  Matrix u(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = i; j < n; ++j) u(i, j) = packed(i, j);
  return u;
}

namespace {

// Panel width for the blocked right-looking factorization: wide enough that
// the trailing update dominates (and runs as one kernel GEMM), narrow
// enough that the panel stays cache-resident.
constexpr Index kLuPanel = 64;

}  // namespace

void lu_factor_panel(Matrix* a_ptr, Index row, Index col, Index width,
                     Index* ipiv) {
  Matrix& a = *a_ptr;
  const Index n = a.rows();
  const Index end = col + width;
  for (Index k = 0; k < width; ++k) {
    const Index i = row + k;
    const Index c = col + k;
    // Partial pivoting: pick the row with the largest |entry| in column c.
    Index pivot = i;
    double best = std::abs(a(i, c));
    for (Index j = i + 1; j < n; ++j) {
      const double v = std::abs(a(j, c));
      if (v > best) {
        best = v;
        pivot = j;
      }
    }
    if (best == 0.0) {
      throw NumericalError("singular matrix: no usable pivot in column " +
                           std::to_string(i));
    }
    ipiv[k] = pivot;
    if (pivot != i) {
      std::swap_ranges(a.row(i).begin(), a.row(i).end(), a.row(pivot).begin());
    }

    const double inv_pivot = 1.0 / a(i, c);
    for (Index j = i + 1; j < n; ++j) a(j, c) *= inv_pivot;

    const double* ui = a.row(i).data();
    for (Index j = i + 1; j < n; ++j) {
      const double lji = a(j, c);
      if (lji == 0.0) continue;
      double* uj = a.row(j).data();
      for (Index q = c + 1; q < end; ++q) uj[q] -= lji * ui[q];
    }
  }
}

LuResult lu_decompose(Matrix a) {
  MRI_REQUIRE(a.square(), "lu_decompose expects a square matrix, got "
                              << a.rows() << "x" << a.cols());
  const Index n = a.rows();

  // Blocked right-looking LU: factor a panel unblocked, solve the panel's U
  // row block with a unit-lower TRSM, then update the trailing submatrix
  // with one GEMM — both on the kernel engine, so the O(n³) bulk runs at
  // the selected backend's speed. For n <= panel this degenerates to the
  // historical unblocked loop exactly.
  kernels::KernelContext ctx;
  std::vector<Index> ipiv(static_cast<std::size_t>(n));
  double* ad = a.data().data();
  for (Index j0 = 0; j0 < n; j0 += kLuPanel) {
    const Index j1 = std::min<Index>(j0 + kLuPanel, n);
    lu_factor_panel(&a, j0, j0, j1 - j0, ipiv.data() + j0);
    if (j1 < n) {
      // U12 = L11⁻¹ · A12 (L11 unit lower, in the panel's strictly-lower
      // part).
      ctx.trsm_lower_left(/*unit_diag=*/true, j1 - j0, n - j1,
                          ad + j0 * n + j0, n, ad + j0 * n + j1, n);
      // A22 -= L21 · U12.
      ctx.gemm(kernels::GemmMode::kSubtract, n - j1, n - j1, j1 - j0,
               ad + j1 * n + j0, n, ad + j0 * n + j1, n, ad + j1 * n + j1, n);
    }
  }

  Permutation perm(n);
  for (Index i = 0; i < n; ++i) perm.swap(i, ipiv[static_cast<std::size_t>(i)]);
  return LuResult{std::move(a), std::move(perm)};
}

IoStats lu_cost(Index n) {
  IoStats io;
  const auto cube = static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(n);
  io.mults = cube / 3;
  io.adds = cube / 3;
  return io;
}

}  // namespace mri

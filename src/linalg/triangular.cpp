#include "linalg/triangular.hpp"

#include <numeric>

#include "linalg/kernels/kernel.hpp"
#include "matrix/ops.hpp"

namespace mri {

namespace {

void check_lower(const Matrix& l) {
  MRI_REQUIRE(l.square(), "expected a square lower-triangular matrix");
  for (Index i = 0; i < l.rows(); ++i) {
    MRI_REQUIRE(l(i, i) != 0.0,
                "triangular matrix is singular at diagonal " << i);
  }
}

}  // namespace

Matrix invert_lower(const Matrix& l) {
  std::vector<Index> all(static_cast<std::size_t>(l.rows()));
  std::iota(all.begin(), all.end(), Index{0});
  return invert_lower_columns(l, all);
}

Matrix invert_upper_via_transpose(const Matrix& u) {
  return transpose(invert_lower(transpose(u)));
}

Matrix invert_lower_columns(const Matrix& l, const std::vector<Index>& columns) {
  check_lower(l);
  const Index n = l.rows();
  const auto k = static_cast<Index>(columns.size());
  // Eq. 4 as the left solve L·X = E, column c of E being the unit vector
  // e_{columns[c]}: column c of X is column columns[c] of L⁻¹. The kernel
  // TRSM never touches the rows above columns[c] (they stay exactly zero),
  // so ascending ids cost Σ (n − id)² flops, the Eq. 4 count.
  Matrix out(n, k);
  for (Index c = 0; c < k; ++c) {
    const Index j = columns[static_cast<std::size_t>(c)];
    MRI_REQUIRE(j >= 0 && j < n, "column index " << j << " out of order " << n);
    out(j, c) = 1.0;
  }
  kernels::KernelContext ctx;
  ctx.trsm_lower_left(/*unit_diag=*/false, n, k, l.data().data(), l.cols(),
                      out.data().data(), k);
  return out;
}

Matrix solve_lower(const Matrix& l, Matrix b) {
  check_lower(l);
  MRI_REQUIRE(l.rows() == b.rows(), "solve_lower shape mismatch: "
                                        << l.rows() << " vs " << b.rows());
  // Forward substitution as a blocked TRSM through the kernel engine: the
  // bulk of the work becomes GEMM trailing updates on the selected backend.
  kernels::KernelContext ctx;
  ctx.trsm_lower_left(/*unit_diag=*/false, l.rows(), b.cols(),
                      l.data().data(), l.cols(), b.data().data(), b.cols());
  return b;
}

IoStats triangular_inverse_cost(Index n) {
  IoStats io;
  const auto cube = static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(n);
  io.mults = cube / 6;
  io.adds = cube / 6;
  return io;
}

IoStats triangular_solve_cost(Index n, Index rhs) {
  IoStats io;
  const auto work = static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(rhs) / 2;
  io.mults = work;
  io.adds = work;
  return io;
}

}  // namespace mri

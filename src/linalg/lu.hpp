// Single-node LU decomposition with partial pivoting — Algorithm 1 of the
// paper. This is the kernel the MapReduce pipeline runs on the master node
// for every leaf block (order <= nb).
#pragma once

#include "matrix/matrix.hpp"
#include "matrix/permutation.hpp"
#include "sim/io_stats.hpp"

namespace mri {

struct LuResult {
  /// Packed factors: U on and above the diagonal, L strictly below (L's unit
  /// diagonal is implicit) — the in-place layout of Algorithm 1.
  Matrix packed;
  /// Row permutation S: row i of P·A is row S[i] of A, and P·A = L·U.
  Permutation perm;

  Matrix unit_lower() const;
  Matrix upper() const;
};

/// LU-decomposes a square matrix with partial pivoting. Throws
/// NumericalError if the matrix is (numerically) singular.
LuResult lu_decompose(Matrix a);

/// The panel step of a right-looking blocked LU, shared by lu_decompose and
/// the ScaLAPACK baseline's pdgetrf: unblocked partial-pivoted elimination
/// of `width` columns of `a`. Step k pivots on column col + k over rows
/// [row + k, a->rows()); the panel's diagonal starts at (row, col), so a
/// rank's local slab of a distributed matrix passes its local column. Row
/// swaps apply to whole rows of *a; the rank-1 updates stay inside the
/// panel. ipiv[k] receives the row swapped with row + k (LAPACK's ipiv, in
/// a's row numbering). Throws NumericalError when a column has no nonzero
/// pivot.
void lu_factor_panel(Matrix* a, Index row, Index col, Index width,
                     Index* ipiv);

/// Flop cost of an n-order LU (n³/3 mults + n³/3 adds, the paper's Table 1
/// leading term).
IoStats lu_cost(Index n);

}  // namespace mri

// Triangular kernels: Eq. 4 inversion and the two substitution solves that
// the block LU step parallelizes (Eq. 6).
//
// Column independence is the property the paper's final MapReduce job
// exploits: invert_lower_columns() computes an arbitrary subset of columns of
// L⁻¹, which is exactly what one mapper does for its interleaved column set.
// The inversions and solves here all run on the kernel engine's blocked TRSM.
#pragma once

#include <vector>

#include "matrix/matrix.hpp"
#include "sim/io_stats.hpp"

namespace mri {

/// L⁻¹ for a lower-triangular L (diagonal may be non-unit): Eq. 4 over all
/// columns.
Matrix invert_lower(const Matrix& l);

/// U⁻¹ for an upper-triangular U, computed the way the paper's
/// implementation does (§4.1/§5.4): invert Uᵀ — a lower triangular matrix —
/// and transpose the result.
Matrix invert_upper_via_transpose(const Matrix& u);

/// Selected columns of L⁻¹ (Eq. 4 per column). Returns an l.rows() x
/// columns.size() matrix whose k-th column is column columns[k] of L⁻¹,
/// exactly zero above row columns[k]. Costs Σ (n − columns[k])² flops when
/// the ids ascend, as the §5.4 interleaved sets do.
Matrix invert_lower_columns(const Matrix& l, const std::vector<Index>& columns);

/// Solves L·X = B for X (forward substitution; columns of X independent).
/// L must be lower-triangular with nonzero diagonal. X is computed in B's
/// storage: pass a B that is not needed afterwards by std::move.
Matrix solve_lower(const Matrix& l, Matrix b);

/// Flop cost of inverting an n-order triangular matrix (~n³/6 each op).
IoStats triangular_inverse_cost(Index n);

/// Flop cost of a triangular solve with an n-order factor and m right-hand
/// sides (~n²m/2 each op).
IoStats triangular_solve_cost(Index n, Index rhs);

}  // namespace mri

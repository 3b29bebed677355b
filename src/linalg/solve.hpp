// Single-node composite routines built from the kernels: full inversion via
// LU (the serial reference the MapReduce pipeline must agree with) and
// linear-system solving.
#pragma once

#include <vector>

#include "linalg/lu.hpp"
#include "matrix/matrix.hpp"

namespace mri {

/// A⁻¹ = U⁻¹ · L⁻¹ · P computed serially — the ground truth for the
/// distributed pipeline tests.
Matrix invert_via_lu(const Matrix& a);

/// Solves A·x = b via LU (forward + back substitution; no explicit inverse).
std::vector<double> solve(const Matrix& a, const std::vector<double>& b);

/// Solves A·X = B for matrix right-hand sides.
Matrix solve_matrix(const Matrix& a, const Matrix& b);

/// Solves L·U·X = B in place, with L and U packed as lu_decompose lays them
/// out (L unit lower, strictly below the diagonal; U on and above it): a
/// unit-lower staircase TRSM, then back substitution with U. `b` holds B,
/// already row-permuted, and becomes X. solve_matrix and the ScaLAPACK
/// baseline's pdgetri both solve through it.
void lu_solve(const Matrix& packed, Matrix* b);

}  // namespace mri

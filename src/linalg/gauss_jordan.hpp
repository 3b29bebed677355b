// Gauss-Jordan inversion with partial pivoting (§2 of the paper).
//
// Kept as the classical single-node baseline: same n³ multiply/add count as
// LU, but its n sequential elimination steps are why the paper rejects it
// for MapReduce (a pipeline of ~n jobs instead of ~n/nb).
#pragma once

#include "matrix/matrix.hpp"

namespace mri {

/// Returns A⁻¹. Throws NumericalError if A is numerically singular.
Matrix gauss_jordan_invert(Matrix a);

/// Number of sequential elimination steps — i.e. the length of the
/// MapReduce pipeline a Gauss-Jordan implementation would need (paper §4.2).
std::int64_t gauss_jordan_pipeline_steps(Index n);

}  // namespace mri

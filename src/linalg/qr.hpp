// Householder QR decomposition and QR-based inversion (§2 baseline).
//
// The paper rejects QR for MapReduce because the Gram-Schmidt-style process
// is an n-step sequential chain; we implement it (with the numerically
// superior Householder reflections) as a single-node baseline and to measure
// the method-choice ablation.
#pragma once

#include "matrix/matrix.hpp"

namespace mri {

struct QrResult {
  Matrix q;  // orthogonal (n x n)
  Matrix r;  // upper triangular (n x n)
};

/// Householder QR: A = Q·R. Requires square A.
QrResult qr_decompose(const Matrix& a);

/// A⁻¹ = R⁻¹·Qᵀ. Throws NumericalError if R is singular.
Matrix qr_invert(const Matrix& a);

/// Pipeline length a QR MapReduce implementation would need (paper §4.2).
std::int64_t qr_pipeline_steps(Index n);

}  // namespace mri

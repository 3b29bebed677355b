// Distributed inversion from the LU factors (PDGETRI analogue).
//
// After pdgetrf, each rank ring-allgathers the packed factors — the m0·n²
// transfer volume the paper's Table 2 attributes to ScaLAPACK — and then
// solves for all the inverse's columns it owns at once:
//   A·X = E  =>  L·U·X = P·E,
// one unit-lower TRSM and one back substitution (linalg's lu_solve). The
// charge per column c is the substitution work: (n − r)²/2 forward, r being
// the row P moves e_c's one to (the rows above it stay zero), plus n²/2
// back, ≈ (2/3)n³ in total, Table 2's flop row.
#pragma once

#include "mpi/world.hpp"
#include "scalapack/pdgetrf.hpp"

namespace mri::scalapack {

/// Runs on one rank inside World::run, after pdgetrf on the same factors.
/// Returns this rank's slab of A⁻¹ (the input's distribution).
Matrix pdgetri(mpi::Comm& comm, const Distribution& dist,
               const LocalFactors& local);

/// Reassembles the distributed inverse from every rank's slab (no cost
/// charged).
Matrix gather_inverse(const Distribution& dist,
                      const std::vector<Matrix>& per_rank);

}  // namespace mri::scalapack

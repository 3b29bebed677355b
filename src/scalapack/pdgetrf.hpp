// Distributed LU factorization with partial pivoting (PDGETRF analogue).
//
// Right-looking block algorithm over the 1-D block-cyclic column
// distribution: the owner of panel k factorizes it locally (it owns entire
// columns, so the pivot search needs no communication), broadcasts the
// factored panel plus its pivot sequence down a binomial tree, and every
// rank applies the row interchanges and the trailing update to its own
// slab: one unit-lower TRSM for the panel's U row block and one GEMM, the
// steps lu_decompose takes, on the same kernels. This reproduces the
// baseline's two structural costs the paper identifies (§7.5, Table 1):
// per-rank transfer volume that does not shrink with the node count, and a
// serial panel-factorization critical path.
#pragma once

#include <vector>

#include "mpi/world.hpp"
#include "scalapack/distribution.hpp"

namespace mri::scalapack {

struct LocalFactors {
  /// This rank's column blocks side by side, ascending: n x
  /// dist.local_cols(rank), block b from local column dist.local_start(b).
  /// Packed LU form after factorization.
  Matrix slab;
  /// LAPACK-style ipiv: at elimination column j, rows j and ipiv[j] swapped.
  std::vector<Index> ipiv;
};

/// Runs on one rank inside World::run. `local` holds this rank's slab of
/// the input matrix and is factored in place. Flops and messages are charged
/// to the rank's simulated clock.
void pdgetrf(mpi::Comm& comm, const Distribution& dist, LocalFactors* local);

/// Copies one rank's columns of a full matrix into its slab (no cost
/// charged; invert() loads the input this way).
LocalFactors scatter_blocks(const Matrix& a, const Distribution& dist,
                            int rank);

}  // namespace mri::scalapack

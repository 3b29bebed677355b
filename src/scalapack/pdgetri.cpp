#include "scalapack/pdgetri.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/solve.hpp"
#include "matrix/permutation.hpp"

namespace mri::scalapack {

namespace {

/// Writes rank `src_rank`'s slab into its columns of the full matrix, one
/// row segment per block.
void unpack_slab(const Distribution& dist, int src_rank, const double* slab,
                 Matrix* full) {
  const std::vector<Index> blocks = dist.blocks_of(src_rank);
  const Index cols = dist.local_cols(src_rank);
  for (Index i = 0; i < dist.n; ++i) {
    for (Index b : blocks) {
      std::copy_n(slab + i * cols + dist.local_start(b), dist.width(b),
                  full->row(i).begin() + dist.block_start(b));
    }
  }
}

}  // namespace

Matrix pdgetri(mpi::Comm& comm, const Distribution& dist,
               const LocalFactors& local) {
  const Index n = dist.n;
  const int p = comm.size();
  const int rank = comm.rank();

  // ---- ring allgather of the packed factors ------------------------------
  Matrix full(n, n);
  std::vector<double> chunk(local.slab.data().begin(),
                            local.slab.data().end());
  unpack_slab(dist, rank, chunk.data(), &full);
  for (int step = 0; step < p - 1; ++step) {
    const int src_of_chunk = ((rank - step) % p + p) % p;
    const int next = (rank + 1) % p;
    const int prev = (rank - 1 + p) % p;
    comm.send(next, std::move(chunk), /*tag=*/100 + step);
    chunk = comm.recv(prev, /*tag=*/100 + step);
    unpack_slab(dist, ((src_of_chunk - 1) % p + p) % p, chunk.data(), &full);
  }

  // ---- the owned columns of A⁻¹, all in one solve ------------------------
  // P·e_c is e_r with r = row_of[c]: the ipiv swaps, applied in order, move
  // row c of E to row r.
  Permutation perm(n);
  for (Index j = 0; j < n; ++j) {
    perm.swap(j, local.ipiv[static_cast<std::size_t>(j)]);
  }
  const Permutation row_of = perm.inverse();
  // Each column is charged the substitution it stands for: forward from
  // row r down, back over all n rows.
  Matrix x(n, local.slab.cols());
  IoStats flops;
  const auto half_square = static_cast<std::uint64_t>(n) *
                           static_cast<std::uint64_t>(n) / 2;
  for (Index b : dist.blocks_of(rank)) {
    for (Index jj = 0; jj < dist.width(b); ++jj) {
      const Index r = row_of[dist.block_start(b) + jj];
      x(r, dist.local_start(b) + jj) = 1.0;
      const std::uint64_t forward = static_cast<std::uint64_t>(n - r) *
                                    static_cast<std::uint64_t>(n - r) / 2;
      flops.mults += forward + half_square;
      flops.adds += forward + half_square;
    }
  }
  lu_solve(full, &x);
  comm.compute(flops);
  return x;
}

Matrix gather_inverse(const Distribution& dist,
                      const std::vector<Matrix>& per_rank) {
  MRI_REQUIRE(static_cast<int>(per_rank.size()) == dist.ranks,
              "per-rank results size mismatch");
  Matrix out(dist.n, dist.n);
  for (int r = 0; r < dist.ranks; ++r) {
    const Matrix& slab = per_rank[static_cast<std::size_t>(r)];
    MRI_CHECK_MSG(slab.rows() == dist.n && slab.cols() == dist.local_cols(r),
                  "missing inverse slab of rank " << r);
    unpack_slab(dist, r, slab.data().data(), &out);
  }
  return out;
}

}  // namespace mri::scalapack

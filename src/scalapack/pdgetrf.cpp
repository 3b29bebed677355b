#include "scalapack/pdgetrf.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/kernels/kernel.hpp"
#include "linalg/lu.hpp"

namespace mri::scalapack {

LocalFactors scatter_blocks(const Matrix& a, const Distribution& dist,
                            int rank) {
  MRI_REQUIRE(a.square() && a.rows() == dist.n, "matrix/distribution mismatch");
  const std::vector<Index> blocks = dist.blocks_of(rank);
  LocalFactors local;
  local.slab = Matrix(dist.n, dist.local_cols(rank));
  local.ipiv.assign(static_cast<std::size_t>(dist.n), 0);
  for (Index i = 0; i < dist.n; ++i) {
    for (Index b : blocks) {
      std::copy_n(a.row(i).begin() + dist.block_start(b), dist.width(b),
                  local.slab.row(i).begin() + dist.local_start(b));
    }
  }
  return local;
}

namespace {

/// Flops charged for factoring global columns [j0, j0 + w): each step
/// scales the column below its pivot and rank-1 updates the rest of the
/// panel.
IoStats panel_cost(Index n, Index j0, Index w) {
  IoStats flops;
  for (Index jj = 0; jj < w; ++jj) {
    const auto below = static_cast<std::uint64_t>(n - (j0 + jj) - 1);
    const auto right = static_cast<std::uint64_t>(w - jj - 1);
    flops.mults += below + below * right;
    flops.adds += below * right;
  }
  return flops;
}

}  // namespace

void pdgetrf(mpi::Comm& comm, const Distribution& dist, LocalFactors* local) {
  MRI_REQUIRE(local != nullptr, "pdgetrf needs local factors");
  const Index n = dist.n;
  const int rank = comm.rank();
  Matrix& slab = local->slab;
  const Index cols = slab.cols();
  double* a = slab.data().data();
  local->ipiv.assign(static_cast<std::size_t>(n), 0);
  const kernels::KernelContext ctx;

  for (Index k = 0; k < dist.num_blocks(); ++k) {
    const Index j0 = dist.block_start(k);
    const Index j1 = dist.block_end(k);
    const Index w = j1 - j0;
    const int owner = dist.owner(k);
    Index* ipiv = local->ipiv.data() + j0;

    // --- panel factorization on the owner; its row swaps cover the slab --
    std::vector<double> packet;  // pivots (w) + panel rows [j0, n) x w
    if (rank == owner) {
      const Index c0 = dist.local_start(k);
      lu_factor_panel(&slab, j0, c0, w, ipiv);
      comm.compute(panel_cost(n, j0, w));
      packet.reserve(static_cast<std::size_t>(w + (n - j0) * w));
      packet.assign(ipiv, ipiv + w);
      for (Index i = j0; i < n; ++i) {
        const auto row = slab.row(i).subspan(static_cast<std::size_t>(c0),
                                             static_cast<std::size_t>(w));
        packet.insert(packet.end(), row.begin(), row.end());
      }
    }

    // --- broadcast panel + pivots; the others swap their slabs' rows -----
    if (dist.ranks > 1) comm.bcast(&packet, owner);
    if (rank != owner) {
      for (Index jj = 0; jj < w; ++jj) {
        ipiv[jj] = static_cast<Index>(packet[static_cast<std::size_t>(jj)]);
        if (ipiv[jj] != j0 + jj) {
          std::swap_ranges(slab.row(j0 + jj).begin(), slab.row(j0 + jj).end(),
                           slab.row(ipiv[jj]).begin());
        }
      }
    }

    // --- trailing update of the owned columns right of the panel ---------
    IoStats flops;
    Index right = cols;  // first slab column right of the panel
    for (Index b : dist.blocks_of(rank)) {
      if (b <= k) continue;
      right = std::min(right, dist.local_start(b));
      const auto wt = static_cast<std::uint64_t>(dist.width(b));
      const auto ww = static_cast<std::uint64_t>(w);
      const std::uint64_t trsm = ww * ww * wt / 2;
      const std::uint64_t gemm = static_cast<std::uint64_t>(n - j1) * ww * wt;
      flops.mults += trsm + gemm;
      flops.adds += trsm + gemm;
    }
    if (right < cols) {
      // U12 = L11⁻¹·A12 (L11 unit lower), then A22 -= L21·U12, with the
      // panel's L read from the broadcast rows [j0, n) x w.
      const double* l = packet.data() + w;
      double* a12 = a + j0 * cols + right;
      ctx.trsm_lower_left(/*unit_diag=*/true, w, cols - right, l, w, a12,
                          cols);
      ctx.gemm(kernels::GemmMode::kSubtract, n - j1, cols - right, w,
               l + w * w, w, a12, cols, a12 + w * cols, cols);
    }
    comm.compute(flops);
  }
}

}  // namespace mri::scalapack

// 1-D block-cyclic column distribution used by the ScaLAPACK-style baseline.
//
// The global n x n matrix is cut into column blocks of width `block_width`
// (the paper tunes ScaLAPACK with 128 x 128 blocks); block b lives on rank
// b mod p. Each rank keeps its blocks side by side, ascending, in one
// n x local_cols(rank) row-major slab, as ScaLAPACK's local array does.
// Helpers here are pure index arithmetic shared by pdgetrf/pdgetri.
#pragma once

#include <vector>

#include "matrix/matrix.hpp"

namespace mri::scalapack {

struct Distribution {
  Index n = 0;
  Index block_width = 128;
  int ranks = 1;

  Distribution(Index n_, Index block_width_, int ranks_)
      : n(n_), block_width(block_width_), ranks(ranks_) {
    MRI_REQUIRE(n >= 1 && block_width >= 1 && ranks >= 1,
                "bad distribution parameters");
  }

  Index num_blocks() const { return (n + block_width - 1) / block_width; }

  int owner(Index block) const { return static_cast<int>(block % ranks); }

  Index block_start(Index block) const { return block * block_width; }
  Index block_end(Index block) const {
    return std::min(n, (block + 1) * block_width);
  }
  Index width(Index block) const { return block_end(block) - block_start(block); }

  /// Blocks owned by `rank`, ascending.
  std::vector<Index> blocks_of(int rank) const {
    std::vector<Index> out;
    for (Index b = rank; b < num_blocks(); b += ranks) out.push_back(b);
    return out;
  }

  /// Columns of `rank`'s local slab.
  Index local_cols(int rank) const {
    Index total = 0;
    for (Index b : blocks_of(rank)) total += width(b);
    return total;
  }

  /// First column of `block` in its owner's slab (the owner's earlier
  /// blocks are all full width; only the last block can be ragged).
  Index local_start(Index block) const { return block / ranks * block_width; }

  /// Total elements owned by `rank`.
  std::uint64_t elements_of(int rank) const {
    return static_cast<std::uint64_t>(n) *
           static_cast<std::uint64_t>(local_cols(rank));
  }

  /// Global column -> owning rank.
  int column_owner(Index col) const {
    return owner(col / block_width);
  }
};

}  // namespace mri::scalapack

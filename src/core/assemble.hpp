// Factor assembly: reconstruct L (unit lower) and Uᵀ (lower) from the LuNode
// tree by reading leaf packed files and L2'/U2 stripes from the DFS.
//
// This is what the final inversion job's mappers do before inverting: they
// read the whole factor — the paper's mappers likewise read all of L (or U)
// from the N(d) separate intermediate files (§6.1). The factor is built in
// one n×n matrix: every file is read straight to its offset in it, and
// L2 = P2·L2' is applied row by row as L2' is copied, never rewritten in the
// DFS (§5.3).
#pragma once

#include <cmath>

#include "core/lu_tree.hpp"
#include "dfs/dfs.hpp"
#include "matrix/matrix.hpp"

namespace mri::core {

/// The unit-lower factor L of `node` (order node->n).
Matrix assemble_l(const dfs::Dfs& fs, const LuNode& node,
                  IoStats* account = nullptr);

/// Uᵀ of `node` — lower triangular (the §6.3 working layout). When stripes
/// were stored untransposed (transposed_u off), they are transposed into
/// place here; the §6.3 access penalty is charged by the kernels that
/// consumed the untransposed layout, not by assembly.
Matrix assemble_ut(const dfs::Dfs& fs, const LuNode& node,
                   IoStats* account = nullptr);

/// Number of DFS files the factor of `node` is spread across (§6.1's N(d)).
std::int64_t factor_file_count(const LuNode& node);

/// The determinant of the factored matrix, read off the factors:
/// det(A) = det(P)ᵀ · Π uᵢᵢ — the parity of S times the product of the
/// leaves' U diagonals (all of U's diagonal lives in leaf blocks). Returned
/// in log-magnitude/sign form to avoid overflow at large orders.
struct Determinant {
  double log_abs = 0.0;
  int sign = 1;  // 0 would mean singular, which the pipeline rejects earlier

  double value() const { return sign * std::exp(log_abs); }
};
Determinant factor_determinant(const dfs::Dfs& fs, const LuNode& node,
                               IoStats* account = nullptr);

}  // namespace mri::core

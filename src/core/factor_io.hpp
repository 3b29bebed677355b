// Compact DFS formats for the LU factors and permutations.
//
// A leaf's factors are stored as the paper's separate l and u files, each
// triangular-packed: l holds L's strictly-lower entries (unit diagonal
// implicit) and ut holds Uᵀ with its diagonal, so the pair is exactly n²
// doubles with no zero padding, plus a tiny permutation file. This keeps
// the pipeline's total factor output at the paper's (3/2)n² write volume
// (Table 1).
#pragma once

#include <string>

#include "dfs/dfs.hpp"
#include "matrix/dfs_io.hpp"
#include "matrix/matrix.hpp"
#include "matrix/permutation.hpp"
#include "sim/io_stats.hpp"

namespace mri::core {

/// Triangular-packed files — the paper's separate per-leaf l / u files.
/// With `unit_diag` the diagonal is implicit (strictly-lower entries only,
/// n(n-1)/2 doubles); otherwise the diagonal is stored (n(n+1)/2 doubles).
/// Together an l file (unit) and a uᵀ file (non-unit) cost exactly n²
/// doubles — the Table 1 write volume. `m` must be lower-triangular.
void write_lower_packed(dfs::Dfs& fs, const std::string& path, const Matrix& m,
                        bool unit_diag, IoStats* account = nullptr,
                        dfs::StorageTier tier = dfs::StorageTier::kDisk);

/// Reads back the full square lower-triangular matrix (implicit unit
/// diagonal restored when the file was written with one).
Matrix read_lower_packed(const dfs::Dfs& fs, const std::string& path,
                         IoStats* account = nullptr);

/// The same reads into `dst`, which must hold the file's order `n`: the
/// lower triangle (and the unit diagonal) land in place; the entries above
/// the diagonal are not touched.
void read_lower_packed(const dfs::Dfs& fs, const std::string& path, Index n,
                       const RowDest& dst, IoStats* account = nullptr);

/// Permutation files: n entries of the paper's array S.
void write_permutation(dfs::Dfs& fs, const std::string& path,
                       const Permutation& perm, IoStats* account = nullptr,
                       dfs::StorageTier tier = dfs::StorageTier::kDisk);
Permutation read_permutation(const dfs::Dfs& fs, const std::string& path,
                             IoStats* account = nullptr);

}  // namespace mri::core

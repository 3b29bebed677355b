// Binary matrix files on the DFS.
//
// Format: u64 magic | u64 rows | u64 cols | rows*cols little-endian doubles,
// row-major. The 24-byte header lets mappers read just their stripe of rows
// with one seek + one sequential read — the paper's §5.2 I/O pattern where
// "each map function reads an equal number of consecutive rows".
#pragma once

#include <string>

#include "dfs/dfs.hpp"
#include "matrix/matrix.hpp"

namespace mri {

/// Writes `m` as a binary matrix file (optionally to the in-memory tier).
void write_matrix(dfs::Dfs& fs, const std::string& path, const Matrix& m,
                  IoStats* account = nullptr,
                  dfs::StorageTier tier = dfs::StorageTier::kDisk);

/// Reads a whole binary matrix file.
Matrix read_matrix(const dfs::Dfs& fs, const std::string& path,
                   IoStats* account = nullptr);

/// Reads only rows [r0, r1) of a binary matrix file (sequential after one
/// seek; only the stripe's bytes are charged).
Matrix read_matrix_rows(const dfs::Dfs& fs, const std::string& path, Index r0,
                        Index r1, IoStats* account = nullptr);

struct MatrixShape {
  Index rows = 0;
  Index cols = 0;
};

/// Reads just the header (cheap; charges only the 24 header bytes).
MatrixShape read_matrix_shape(const dfs::Dfs& fs, const std::string& path,
                              IoStats* account = nullptr);

}  // namespace mri

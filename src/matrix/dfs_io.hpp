// Binary matrix files on the DFS.
//
// Format: u64 magic | u64 rows | u64 cols | rows*cols little-endian doubles,
// row-major. The 24-byte header lets mappers read just their stripe of rows
// with one seek + one sequential read — the paper's §5.2 I/O pattern where
// "each map function reads an equal number of consecutive rows".
//
// Reads land where the caller wants them: a RowDest names the destination,
// and the bytes go there straight from the stored block, with no
// intermediate matrix.
#pragma once

#include <span>
#include <string>

#include "dfs/dfs.hpp"
#include "matrix/matrix.hpp"

namespace mri {

/// Where the rows of a read land: row i starts at data + i·ld, or at
/// data + rows[i]·ld when a row map is given (how a permutation is applied
/// as the rows are copied).
struct RowDest {
  double* data = nullptr;
  Index ld = 0;
  std::span<const Index> rows;  // empty: row i lands in row i

  double* row(Index i) const {
    return data + (rows.empty() ? i : rows[static_cast<std::size_t>(i)]) * ld;
  }
  /// The destination of rows [i, ...) shifted `col` columns right.
  RowDest at(Index i, Index col) const {
    if (rows.empty()) return {data + i * ld + col, ld, {}};
    return {data + col, ld, rows.subspan(static_cast<std::size_t>(i))};
  }
};

/// Writes `m` as a binary matrix file (optionally to the in-memory tier).
void write_matrix(dfs::Dfs& fs, const std::string& path, const Matrix& m,
                  IoStats* account = nullptr,
                  dfs::StorageTier tier = dfs::StorageTier::kDisk);

/// Writes the block [r0, r1) x [c0, c1) of `m` as a binary matrix file: the
/// same file write_matrix(m.block(r0, r1, c0, c1)) writes, without the copy.
void write_matrix(dfs::Dfs& fs, const std::string& path, const Matrix& m,
                  Index r0, Index r1, Index c0, Index c1,
                  IoStats* account = nullptr,
                  dfs::StorageTier tier = dfs::StorageTier::kDisk);

/// Writes mᵀ as a binary matrix file: the file write_matrix(transpose(m))
/// writes, gathered a few columns of `m` at a time instead of through a
/// transposed copy.
void write_matrix_transposed(dfs::Dfs& fs, const std::string& path,
                             const Matrix& m, IoStats* account = nullptr,
                             dfs::StorageTier tier = dfs::StorageTier::kDisk);

/// Reads a whole binary matrix file.
Matrix read_matrix(const dfs::Dfs& fs, const std::string& path,
                   IoStats* account = nullptr);

/// Reads only rows [r0, r1) of a binary matrix file (sequential after one
/// seek; only the stripe's bytes are charged).
Matrix read_matrix_rows(const dfs::Dfs& fs, const std::string& path, Index r0,
                        Index r1, IoStats* account = nullptr);

/// Reads columns [c0, c1) of rows [r0, r1) into `dst`. The I/O is the one
/// above — whole rows [r0, r1), one seek and one sequential read, every
/// byte charged — but only the window's columns are copied, each straight
/// from the stored block to its destination row.
void read_matrix_rows(const dfs::Dfs& fs, const std::string& path, Index r0,
                      Index r1, Index c0, Index c1, const RowDest& dst,
                      IoStats* account = nullptr);

struct MatrixShape {
  Index rows = 0;
  Index cols = 0;
};

/// Reads just the header (cheap; charges only the 24 header bytes).
MatrixShape read_matrix_shape(const dfs::Dfs& fs, const std::string& path,
                              IoStats* account = nullptr);

}  // namespace mri

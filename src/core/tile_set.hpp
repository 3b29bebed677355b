// TileSet: a logical matrix stored as non-overlapping rectangular tiles in
// DFS files — the paper's metadata-only partitioning (§5.2).
//
// The partition job materializes tile files once; every later consumer
// (stripe readers in the LU jobs, the reducers' A4 tiles, the second child's
// whole input B) reads sub-rectangles through a TileSet, which resolves them
// to row-ranges of the underlying files. Only the touched tile rows are
// read, mirroring HDFS sequential-read behaviour. Building a TileSet over
// existing files costs no I/O — this is why the paper can "partition"
// B = A4 - L2'U2 on the master in under a second.
#pragma once

#include <string>
#include <vector>

#include "dfs/dfs.hpp"
#include "matrix/dfs_io.hpp"
#include "matrix/matrix.hpp"
#include "sim/io_stats.hpp"

namespace mri::core {

struct Tile {
  std::string path;  // DFS binary matrix file
  /// Rectangle the tile covers in the logical matrix.
  Index r0 = 0, r1 = 0, c0 = 0, c1 = 0;
  /// Where that rectangle starts inside the file (non-zero when a window
  /// clipped the tile): logical (r0, c0) is file element (file_r0, file_c0).
  Index file_r0 = 0, file_c0 = 0;
};

class TileSet {
 public:
  TileSet() = default;

  /// `rows` x `cols` logical matrix backed by `tiles`. Tiles must be
  /// disjoint; coverage is validated lazily on read.
  TileSet(Index rows, Index cols, std::vector<Tile> tiles);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  const std::vector<Tile>& tiles() const { return tiles_; }

  /// Reads the sub-rectangle [r0,r1) x [c0,c1), charging only the
  /// overlapping row-ranges of overlapping tiles. Throws DfsError if any
  /// part of the rectangle is not covered by a tile.
  Matrix read_block(const dfs::Dfs& fs, Index r0, Index r1, Index c0, Index c1,
                    IoStats* account = nullptr) const;

  /// read_block() into `dst` instead of a new matrix: row i of the
  /// rectangle lands in dst.row(i). Same reads in the same order, each tile
  /// file's columns copied straight to their destination.
  void read_into(const dfs::Dfs& fs, Index r0, Index r1, Index c0, Index c1,
                 const RowDest& dst, IoStats* account = nullptr) const;

  /// Whole logical matrix.
  Matrix read_all(const dfs::Dfs& fs, IoStats* account = nullptr) const {
    return read_block(fs, 0, rows_, 0, cols_, account);
  }

  /// A TileSet over a sub-rectangle of this one (metadata only, no I/O) —
  /// how the master "partitions" B for the recursive call.
  TileSet window(Index r0, Index r1, Index c0, Index c1) const;

  /// Serialized manifest size in bytes (the paper notes these are < 1 KB).
  std::size_t manifest_bytes() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Tile> tiles_;
};

}  // namespace mri::core

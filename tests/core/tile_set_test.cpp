#include "core/tile_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "matrix/dfs_io.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "matrix/permutation.hpp"
#include "net/topology.hpp"

namespace mri::core {
namespace {

class TileSetTest : public ::testing::Test {
 protected:
  MetricsRegistry metrics;
  dfs::Dfs fs{2, dfs::DfsConfig{}, &metrics};

  /// Writes `m` as a grid of tile files and returns the TileSet.
  TileSet store_grid(const Matrix& m, Index tile_rows, Index tile_cols) {
    std::vector<Tile> tiles;
    int id = 0;
    for (Index r = 0; r < m.rows(); r += tile_rows) {
      for (Index c = 0; c < m.cols(); c += tile_cols) {
        Tile t;
        t.r0 = r;
        t.r1 = std::min(m.rows(), r + tile_rows);
        t.c0 = c;
        t.c1 = std::min(m.cols(), c + tile_cols);
        t.path = "/tiles/t." + std::to_string(id++);
        write_matrix(fs, t.path, m.block(t.r0, t.r1, t.c0, t.c1));
        tiles.push_back(std::move(t));
      }
    }
    return TileSet(m.rows(), m.cols(), std::move(tiles));
  }
};

TEST_F(TileSetTest, ReadAllReconstructs) {
  const Matrix m = random_matrix(12, 10, /*seed=*/1, -1, 1);
  const TileSet ts = store_grid(m, 5, 4);
  EXPECT_EQ(ts.read_all(fs), m);
}

TEST_F(TileSetTest, ReadBlockCrossesTiles) {
  const Matrix m = random_matrix(12, 12, /*seed=*/2, -1, 1);
  const TileSet ts = store_grid(m, 4, 4);
  EXPECT_EQ(ts.read_block(fs, 2, 11, 3, 9), m.block(2, 11, 3, 9));
}

TEST_F(TileSetTest, EmptyBlock) {
  const Matrix m = random_matrix(4, 4, /*seed=*/3, -1, 1);
  const TileSet ts = store_grid(m, 2, 2);
  const Matrix b = ts.read_block(fs, 2, 2, 0, 4);
  EXPECT_EQ(b.rows(), 0);
}

TEST_F(TileSetTest, ChargesOnlyTouchedRows) {
  const Matrix m = random_matrix(16, 8, /*seed=*/4, -1, 1);
  const TileSet ts = store_grid(m, 16, 8);  // single tile
  IoStats io;
  ts.read_block(fs, 0, 2, 0, 8, &io);
  // Two 8-column rows + header; far less than the whole file.
  EXPECT_LT(io.bytes_read, 3 * 8 * sizeof(double) + 64);
}

TEST_F(TileSetTest, UncoveredRectangleThrows) {
  std::vector<Tile> tiles;
  Tile t;
  t.path = "/tiles/partial";
  t.r0 = 0;
  t.r1 = 2;
  t.c0 = 0;
  t.c1 = 4;
  write_matrix(fs, t.path, Matrix(2, 4));
  tiles.push_back(t);
  const TileSet ts(4, 4, std::move(tiles));  // rows 2..4 uncovered
  EXPECT_NO_THROW(ts.read_block(fs, 0, 2, 0, 4));
  EXPECT_THROW(ts.read_block(fs, 0, 4, 0, 4), DfsError);
}

TEST_F(TileSetTest, WindowReadsSubMatrix) {
  const Matrix m = random_matrix(12, 12, /*seed=*/5, -1, 1);
  const TileSet ts = store_grid(m, 4, 4);
  const TileSet w = ts.window(3, 9, 2, 10);
  EXPECT_EQ(w.rows(), 6);
  EXPECT_EQ(w.cols(), 8);
  EXPECT_EQ(w.read_all(fs), m.block(3, 9, 2, 10));
  // Nested windows (the recursive B partitioning).
  const TileSet w2 = w.window(1, 5, 0, 4);
  EXPECT_EQ(w2.read_all(fs), m.block(4, 8, 2, 6));
}

TEST_F(TileSetTest, WindowOfWindowReadBlock) {
  const Matrix m = random_matrix(16, 16, /*seed=*/6, -1, 1);
  const TileSet ts = store_grid(m, 5, 7);
  const TileSet w = ts.window(2, 14, 3, 15);
  EXPECT_EQ(w.read_block(fs, 1, 9, 2, 11), m.block(3, 11, 5, 14));
}

TEST_F(TileSetTest, OutOfBoundsChecked) {
  const Matrix m = random_matrix(4, 4, /*seed=*/7, -1, 1);
  const TileSet ts = store_grid(m, 2, 2);
  EXPECT_THROW(ts.read_block(fs, 0, 5, 0, 4), InvalidArgument);
  EXPECT_THROW(ts.window(0, 5, 0, 4), InvalidArgument);
}

// ---- in-place reads against the composition they replaced ------------------

/// The read_block that copied every tile twice: the tile file's whole rows
/// into a matrix (read_matrix_rows), the window out of it (block()), then
/// into place (set_block()).
Matrix rows_then_block(const TileSet& ts, const dfs::Dfs& fs, Index r0,
                       Index r1, Index c0, Index c1, IoStats* account) {
  Matrix out(r1 - r0, c1 - c0);
  for (const Tile& t : ts.tiles()) {
    const Index ir0 = std::max(r0, t.r0), ir1 = std::min(r1, t.r1);
    const Index ic0 = std::max(c0, t.c0), ic1 = std::min(c1, t.c1);
    if (ir0 >= ir1 || ic0 >= ic1) continue;
    const Index fr0 = ir0 - t.r0 + t.file_r0, fr1 = ir1 - t.r0 + t.file_r0;
    const Index fc0 = ic0 - t.c0 + t.file_c0, fc1 = ic1 - t.c0 + t.file_c0;
    const Matrix rows = read_matrix_rows(fs, t.path, fr0, fr1, account);
    out.set_block(ir0 - r0, ic0 - c0, rows.block(0, fr1 - fr0, fc0, fc1));
  }
  return out;
}

bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.empty() || std::memcmp(a.data().data(), b.data().data(),
                                   a.data().size_bytes()) == 0);
}

bool same_transfers(const std::vector<net::Transfer>& a,
                    const std::vector<net::Transfer>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const net::Transfer& x, const net::Transfer& y) {
                      return x.src == y.src && x.dst == y.dst &&
                             x.bytes == y.bytes && x.kind == y.kind;
                    });
}

struct Window {
  Index r0, r1, c0, c1;
};

// Bytes, IoStats and racked transfer-log records of read_block() equal the
// old composition's, for windows crossing tiles, partial column windows
// and full-width ones — with blocks large enough to hold each file and
// small enough that block boundaries fall inside rows and inside doubles.
TEST(TileSetInPlace, ReadBlockMatchesRowsThenBlock) {
  const Matrix m = random_matrix(17, 23, /*seed=*/9, -1, 1);
  const std::vector<Window> windows = {
      {2, 15, 3, 20},  // crosses tile rows and columns
      {1, 4, 1, 3},    // a partial column window inside one tile
      {6, 9, 7, 14},   // exactly one tile's columns, some of its rows
      {0, 17, 0, 23},  // full width, everything
      {5, 10, 0, 23},  // full width, one band of rows
      {4, 4, 0, 23},   // empty
  };
  for (const std::size_t block_size : {std::size_t{64} << 20, std::size_t{100},
                                       std::size_t{264}}) {
    SCOPED_TRACE("block size " + std::to_string(block_size));
    MetricsRegistry metrics;
    dfs::DfsConfig cfg;
    cfg.block_size = block_size;
    dfs::Dfs fs(4, cfg, &metrics);
    net::TopologyOptions topo;
    topo.kind = net::TopologyKind::kRacked;
    topo.racks = 2;
    fs.set_topology(std::make_shared<const net::Topology>(4, 100e6, topo));
    // Full-width tiles (one per band of rows) and a grid of narrow tiles.
    for (const auto& [tile_rows, tile_cols] :
         {std::pair<Index, Index>{5, 23}, std::pair<Index, Index>{5, 7}}) {
      std::vector<Tile> tiles;
      for (Index r = 0; r < m.rows(); r += tile_rows) {
        for (Index c = 0; c < m.cols(); c += tile_cols) {
          Tile t;
          t.r0 = r;
          t.r1 = std::min(m.rows(), r + tile_rows);
          t.c0 = c;
          t.c1 = std::min(m.cols(), c + tile_cols);
          t.path = "/g" + std::to_string(tile_cols) + "/t." +
                   std::to_string(tiles.size());
          write_matrix(fs, t.path, m.block(t.r0, t.r1, t.c0, t.c1));
          tiles.push_back(std::move(t));
        }
      }
      const TileSet whole(m.rows(), m.cols(), std::move(tiles));
      // A window of the set too: its tiles start inside their files.
      for (const TileSet& ts : {whole, whole.window(1, 17, 2, 23)}) {
        for (const Window& w : windows) {
          if (w.r1 > ts.rows() || w.c1 > ts.cols()) continue;
          SCOPED_TRACE(testing::Message()
                       << ts.rows() << "x" << ts.cols() << " set, window ["
                       << w.r0 << "," << w.r1 << ")x[" << w.c0 << "," << w.c1
                       << ")");
          IoStats got_io, want_io;
          Matrix got, want;
          std::vector<net::Transfer> got_log, want_log;
          {
            dfs::ScopedTransferLog log(/*node=*/1);
            got = ts.read_block(fs, w.r0, w.r1, w.c0, w.c1, &got_io);
            got_log = log.log().transfers;
          }
          {
            dfs::ScopedTransferLog log(/*node=*/1);
            want = rows_then_block(ts, fs, w.r0, w.r1, w.c0, w.c1, &want_io);
            want_log = log.log().transfers;
          }
          EXPECT_TRUE(same_bytes(got, want));
          EXPECT_EQ(got_io, want_io);
          EXPECT_FALSE(want_log.empty() && w.r0 < w.r1);
          EXPECT_TRUE(same_transfers(got_log, want_log));
        }
      }
    }
  }
}

// read_into() with a row map puts row i of the rectangle at row map[i]:
// P·A built as A is read, equal to apply_to_rows() of the plain read.
TEST_F(TileSetTest, ReadIntoAppliesARowMap) {
  const Matrix m = random_matrix(12, 10, /*seed=*/10, -1, 1);
  const TileSet ts = store_grid(m, 5, 4);
  const Permutation p(std::vector<Index>{3, 0, 6, 1, 5, 2, 4});
  const Permutation to = p.inverse();
  Matrix got(7, 6);
  IoStats got_io, want_io;
  ts.read_into(fs, 4, 11, 2, 8,
               RowDest{got.data().data(), got.cols(), to.map()}, &got_io);
  const Matrix want = p.apply_to_rows(ts.read_block(fs, 4, 11, 2, 8, &want_io));
  EXPECT_TRUE(same_bytes(got, want));
  EXPECT_EQ(got_io, want_io);
}

TEST_F(TileSetTest, ManifestIsSmall) {
  // §5.2: partition metadata for B is well under 1 KB.
  const Matrix m = random_matrix(8, 8, /*seed=*/8, -1, 1);
  const TileSet ts = store_grid(m, 4, 4);
  EXPECT_LT(ts.manifest_bytes(), 1024u);
}

}  // namespace
}  // namespace mri::core

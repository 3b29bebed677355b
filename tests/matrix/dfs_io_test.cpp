#include "matrix/dfs_io.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri {
namespace {

class DfsIoTest : public ::testing::Test {
 protected:
  MetricsRegistry metrics;
  dfs::Dfs fs{4, dfs::DfsConfig{}, &metrics};
};

TEST_F(DfsIoTest, BinaryRoundTrip) {
  const Matrix m = random_matrix(17, 9, /*seed=*/1, -10, 10);
  write_matrix(fs, "/m.bin", m);
  EXPECT_EQ(read_matrix(fs, "/m.bin"), m);
}

TEST_F(DfsIoTest, ShapeOnlyRead) {
  write_matrix(fs, "/m.bin", Matrix(5, 9));
  IoStats io;
  const MatrixShape s = read_matrix_shape(fs, "/m.bin", &io);
  EXPECT_EQ(s.rows, 5);
  EXPECT_EQ(s.cols, 9);
  EXPECT_EQ(io.bytes_read, 24u);  // header only
}

TEST_F(DfsIoTest, RowRangeRead) {
  const Matrix m = random_matrix(20, 6, /*seed=*/2, -1, 1);
  write_matrix(fs, "/m.bin", m);
  IoStats io;
  const Matrix rows = read_matrix_rows(fs, "/m.bin", 3, 11, &io);
  EXPECT_EQ(rows, m.block(3, 11, 0, 6));
  // Charged: header + 8 rows of 6 doubles (the seek is free).
  EXPECT_EQ(io.bytes_read, 24u + 8u * 6u * sizeof(double));
}

TEST_F(DfsIoTest, RowRangeBoundsChecked) {
  write_matrix(fs, "/m.bin", Matrix(4, 4));
  EXPECT_THROW(read_matrix_rows(fs, "/m.bin", 2, 5), InvalidArgument);
}

TEST_F(DfsIoTest, EmptyRowRange) {
  const Matrix m = random_matrix(4, 4, /*seed=*/3, -1, 1);
  write_matrix(fs, "/m.bin", m);
  const Matrix empty = read_matrix_rows(fs, "/m.bin", 2, 2);
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.cols(), 4);
}

TEST_F(DfsIoTest, RejectsCorruptMagic) {
  fs.write_text("/bad.bin", "this is not a matrix file at all............");
  EXPECT_THROW(read_matrix(fs, "/bad.bin"), Error);
}

/// The stored bytes of `path`, copied to `to` with `edit` applied first.
void rewrite(dfs::Dfs& fs, const std::string& path, const std::string& to,
             const std::function<void(std::string*)>& edit) {
  std::string bytes = fs.read_text(path);
  edit(&bytes);
  fs.write_text(to, bytes);
}

TEST_F(DfsIoTest, TruncatedFileIsRefusedBeforeAllocating) {
  write_matrix(fs, "/m.bin", random_matrix(6, 5, /*seed=*/4, -1, 1));
  rewrite(fs, "/m.bin", "/short.bin",
          [](std::string* b) { b->resize(b->size() - sizeof(double)); });
  EXPECT_THROW(read_matrix(fs, "/short.bin"), DfsError);
  EXPECT_THROW(read_matrix_rows(fs, "/short.bin", 0, 1), DfsError);
  EXPECT_THROW(read_matrix_shape(fs, "/short.bin"), DfsError);
  rewrite(fs, "/m.bin", "/header.bin", [](std::string* b) { b->resize(24); });
  EXPECT_THROW(read_matrix(fs, "/header.bin"), DfsError);
}

TEST_F(DfsIoTest, HeaderWithChangedColsIsRefused) {
  write_matrix(fs, "/m.bin", random_matrix(6, 5, /*seed=*/5, -1, 1));
  // cols is the third u64; a flipped high bit would ask for ~2^43 doubles.
  for (const std::uint64_t cols : {std::uint64_t{4}, std::uint64_t{6},
                                   (std::uint64_t{1} << 40) | 5,
                                   ~std::uint64_t{0}}) {
    rewrite(fs, "/m.bin", "/bad.bin", [cols](std::string* b) {
      std::memcpy(b->data() + 16, &cols, sizeof cols);
    });
    EXPECT_THROW(read_matrix(fs, "/bad.bin"), DfsError) << cols;
    EXPECT_THROW(read_matrix_rows(fs, "/bad.bin", 0, 1), DfsError) << cols;
    fs.remove("/bad.bin");
  }
}

TEST_F(DfsIoTest, WindowReadLandsInPlace) {
  dfs::DfsConfig small;
  small.block_size = 52;  // block boundaries inside rows and inside doubles
  dfs::Dfs fs2(3, small, &metrics);
  const Matrix m = random_matrix(9, 7, /*seed=*/6, -1, 1);
  write_matrix(fs2, "/m.bin", m);
  // Columns [2, 6) of rows [3, 8), into a wider matrix at (1, 3); and with
  // a row map that reverses them.
  Matrix dst(7, 10);
  IoStats window_io, rows_io;
  read_matrix_rows(fs2, "/m.bin", 3, 8, 2, 6,
                   RowDest{dst.data().data() + 1 * 10 + 3, 10, {}},
                   &window_io);
  read_matrix_rows(fs2, "/m.bin", 3, 8, &rows_io);
  EXPECT_EQ(window_io, rows_io);  // whole rows are read and charged
  EXPECT_EQ(dst.block(1, 6, 3, 7), m.block(3, 8, 2, 6));
  EXPECT_EQ(max_abs(dst.block(0, 1, 0, 10)), 0.0);  // nothing else written
  EXPECT_EQ(max_abs(dst.block(0, 7, 0, 3)), 0.0);
  const std::vector<Index> reverse = {4, 3, 2, 1, 0};
  Matrix rev(5, 7);
  read_matrix_rows(fs2, "/m.bin", 3, 8, 0, 7,
                   RowDest{rev.data().data(), 7, reverse});
  for (Index i = 0; i < 5; ++i) {
    EXPECT_EQ(rev.block(4 - i, 5 - i, 0, 7), m.block(3 + i, 4 + i, 0, 7));
  }
  EXPECT_THROW(read_matrix_rows(fs2, "/m.bin", 0, 2, 3, 8,
                                RowDest{dst.data().data(), 10, {}}),
               InvalidArgument);
}

TEST_F(DfsIoTest, BlockAndTransposedWritesMatchTheCopies) {
  const Matrix m = random_matrix(11, 9, /*seed=*/7, -1, 1);
  IoStats block_io, copy_io;
  write_matrix(fs, "/blk.bin", m, 2, 9, 3, 8, &block_io);
  write_matrix(fs, "/copy.bin", m.block(2, 9, 3, 8), &copy_io);
  EXPECT_EQ(fs.read_text("/blk.bin"), fs.read_text("/copy.bin"));
  EXPECT_EQ(block_io, copy_io);
  write_matrix(fs, "/rows.bin", m, 4, 7, 0, 9);  // full width, one write
  EXPECT_EQ(read_matrix(fs, "/rows.bin"), m.block(4, 7, 0, 9));
  write_matrix_transposed(fs, "/t.bin", m);
  write_matrix(fs, "/tcopy.bin", transpose(m));
  EXPECT_EQ(fs.read_text("/t.bin"), fs.read_text("/tcopy.bin"));
}

TEST_F(DfsIoTest, WriteChargesReplication) {
  IoStats io;
  write_matrix(fs, "/m.bin", Matrix(10, 10), &io);
  const std::uint64_t logical = 24u + 100u * sizeof(double);
  EXPECT_EQ(io.bytes_written, logical);
  EXPECT_EQ(io.bytes_replicated, 2 * logical);  // replication 3
}

}  // namespace
}  // namespace mri

#include "matrix/dfs_io.hpp"

#include <gtest/gtest.h>

#include "matrix/generate.hpp"

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

TEST_F(DfsIoTest, WriteChargesReplication) {
  IoStats io;
  write_matrix(fs, "/m.bin", Matrix(10, 10), &io);
  const std::uint64_t logical = 24u + 100u * sizeof(double);
  EXPECT_EQ(io.bytes_written, logical);
  EXPECT_EQ(io.bytes_replicated, 2 * logical);  // replication 3
}

}  // namespace
}  // namespace mri

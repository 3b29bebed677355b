#include "matrix/dfs_io.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace mri {

namespace {
constexpr std::uint64_t kMagic = 0x4D52494E564D5458ull;  // "MRINVMTX"
constexpr std::uint64_t kHeaderBytes = 3 * sizeof(std::uint64_t);
}  // namespace

void write_matrix(dfs::Dfs& fs, const std::string& path, const Matrix& m,
                  IoStats* account, dfs::StorageTier tier) {
  write_matrix(fs, path, m, 0, m.rows(), 0, m.cols(), account, tier);
}

void write_matrix(dfs::Dfs& fs, const std::string& path, const Matrix& m,
                  Index r0, Index r1, Index c0, Index c1, IoStats* account,
                  dfs::StorageTier tier) {
  MRI_REQUIRE(0 <= r0 && r0 <= r1 && r1 <= m.rows() && 0 <= c0 && c0 <= c1 &&
                  c1 <= m.cols(),
              "block [" << r0 << "," << r1 << ")x[" << c0 << "," << c1
                        << ") out of " << m.rows() << "x" << m.cols());
  const Index rows = r1 - r0;
  const Index cols = c1 - c0;
  dfs::Dfs::Writer w = fs.create(path, account, tier);
  w.reserve(kHeaderBytes +
            static_cast<std::size_t>(rows * cols) * sizeof(double));
  w.write_u64(kMagic);
  w.write_u64(static_cast<std::uint64_t>(rows));
  w.write_u64(static_cast<std::uint64_t>(cols));
  for (Index i = r0; i < r1; ++i) {
    w.write_doubles(m.row(i).subspan(static_cast<std::size_t>(c0),
                                     static_cast<std::size_t>(cols)));
  }
  w.close();
}

void write_matrix_transposed(dfs::Dfs& fs, const std::string& path,
                             const Matrix& m, IoStats* account,
                             dfs::StorageTier tier) {
  // Row j of mᵀ is column j of m: gather kStrip columns per pass, so each
  // cache line of m read serves kStrip rows of the file.
  constexpr Index kStrip = 8;
  const Index rows = m.cols();
  const Index cols = m.rows();
  dfs::Dfs::Writer w = fs.create(path, account, tier);
  w.reserve(kHeaderBytes +
            static_cast<std::size_t>(rows * cols) * sizeof(double));
  w.write_u64(kMagic);
  w.write_u64(static_cast<std::uint64_t>(rows));
  w.write_u64(static_cast<std::uint64_t>(cols));
  std::vector<double> strip(static_cast<std::size_t>(kStrip * cols));
  for (Index j0 = 0; j0 < rows; j0 += kStrip) {
    const Index width = std::min(kStrip, rows - j0);
    for (Index i = 0; i < cols; ++i) {
      const double* src = m.row(i).data() + j0;
      for (Index j = 0; j < width; ++j) {
        strip[static_cast<std::size_t>(j * cols + i)] = src[j];
      }
    }
    w.write_doubles(std::span<const double>(
        strip.data(), static_cast<std::size_t>(width * cols)));
  }
  w.close();
}

namespace {

MatrixShape read_header(dfs::Dfs::Reader& r, const std::string& path) {
  MRI_CHECK_MSG(r.size() >= kHeaderBytes, "not a matrix file: " << path);
  const std::uint64_t magic = r.read_u64();
  MRI_CHECK_MSG(magic == kMagic, "bad matrix magic in " << path);
  const std::uint64_t rows = r.read_u64();
  const std::uint64_t cols = r.read_u64();
  // The header must describe exactly the doubles that follow. Checked
  // without multiplying (no overflow) and before anything is sized from it,
  // so a flipped bit cannot turn into an arbitrary allocation.
  const std::uint64_t payload = r.size() - kHeaderBytes;
  const std::uint64_t doubles = payload / sizeof(double);
  const auto max_dim = static_cast<std::uint64_t>(
      std::numeric_limits<Index>::max());
  const bool consistent =
      payload % sizeof(double) == 0 && rows <= max_dim && cols <= max_dim &&
      (rows == 0 ? doubles == 0 : doubles % rows == 0 && doubles / rows == cols);
  if (!consistent) {
    throw DfsError("matrix file " + path + ": header says " +
                   std::to_string(rows) + "x" + std::to_string(cols) +
                   " but " + std::to_string(payload) +
                   " bytes follow it");
  }
  return MatrixShape{static_cast<Index>(rows), static_cast<Index>(cols)};
}

/// Rows [r0, r1) of the file behind `r` (header already read) in one
/// sequential read; columns [c0, c1) of each land in `dst`.
void read_window(dfs::Dfs::Reader& r, const MatrixShape& shape,
                 const std::string& path, Index r0, Index r1, Index c0,
                 Index c1, const RowDest& dst) {
  MRI_REQUIRE(0 <= r0 && r0 <= r1 && r1 <= shape.rows,
              "row range [" << r0 << "," << r1 << ") out of " << shape.rows
                            << " rows in " << path);
  MRI_REQUIRE(0 <= c0 && c0 <= c1 && c1 <= shape.cols,
              "column range [" << c0 << "," << c1 << ") out of "
                               << shape.cols << " columns in " << path);
  const auto row_bytes =
      static_cast<std::size_t>(shape.cols) * sizeof(double);
  r.seek(kHeaderBytes + static_cast<std::uint64_t>(r0) * row_bytes);
  const auto lo = static_cast<std::size_t>(c0) * sizeof(double);
  const auto hi = static_cast<std::size_t>(c1) * sizeof(double);
  std::size_t pos = 0;  // bytes of the read seen so far
  r.read_spans(static_cast<std::size_t>(r1 - r0) * row_bytes,
               [&](std::span<const std::byte> chunk) {
                 // A chunk may start or end mid-row (block boundaries):
                 // walk it row piece by row piece.
                 while (!chunk.empty()) {
                   const std::size_t row = pos / row_bytes;
                   const std::size_t at = pos % row_bytes;
                   const std::size_t take =
                       std::min(chunk.size(), row_bytes - at);
                   const std::size_t b = std::max(at, lo);
                   const std::size_t e = std::min(at + take, hi);
                   if (b < e) {
                     std::memcpy(reinterpret_cast<std::byte*>(
                                     dst.row(static_cast<Index>(row))) +
                                     (b - lo),
                                 chunk.data() + (b - at), e - b);
                   }
                   chunk = chunk.subspan(take);
                   pos += take;
                 }
               });
}

}  // namespace

Matrix read_matrix(const dfs::Dfs& fs, const std::string& path,
                   IoStats* account) {
  auto r = fs.open(path, account);
  const MatrixShape shape = read_header(r, path);
  Matrix m(shape.rows, shape.cols);
  r.read_doubles(m.data());
  return m;
}

Matrix read_matrix_rows(const dfs::Dfs& fs, const std::string& path, Index r0,
                        Index r1, IoStats* account) {
  auto r = fs.open(path, account);
  const MatrixShape shape = read_header(r, path);
  MRI_REQUIRE(0 <= r0 && r0 <= r1 && r1 <= shape.rows,
              "row range [" << r0 << "," << r1 << ") out of " << shape.rows
                            << " rows in " << path);
  Matrix m(r1 - r0, shape.cols);
  read_window(r, shape, path, r0, r1, 0, shape.cols,
              RowDest{m.data().data(), m.cols(), {}});
  return m;
}

void read_matrix_rows(const dfs::Dfs& fs, const std::string& path, Index r0,
                      Index r1, Index c0, Index c1, const RowDest& dst,
                      IoStats* account) {
  auto r = fs.open(path, account);
  const MatrixShape shape = read_header(r, path);
  read_window(r, shape, path, r0, r1, c0, c1, dst);
}

MatrixShape read_matrix_shape(const dfs::Dfs& fs, const std::string& path,
                              IoStats* account) {
  auto r = fs.open(path, account);
  return read_header(r, path);
}

}  // namespace mri

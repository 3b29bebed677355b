#include "matrix/dfs_io.hpp"

#include "common/error.hpp"

namespace mri {

namespace {
constexpr std::uint64_t kMagic = 0x4D52494E564D5458ull;  // "MRINVMTX"
constexpr std::uint64_t kHeaderBytes = 3 * sizeof(std::uint64_t);
}  // namespace

void write_matrix(dfs::Dfs& fs, const std::string& path, const Matrix& m,
                  IoStats* account, dfs::StorageTier tier) {
  dfs::Dfs::Writer w = fs.create(path, account, tier);
  w.write_u64(kMagic);
  w.write_u64(static_cast<std::uint64_t>(m.rows()));
  w.write_u64(static_cast<std::uint64_t>(m.cols()));
  w.write_doubles(m.data());
  w.close();
}

namespace {

MatrixShape read_header(dfs::Dfs::Reader& r, const std::string& path) {
  MRI_CHECK_MSG(r.size() >= kHeaderBytes, "not a matrix file: " << path);
  const std::uint64_t magic = r.read_u64();
  MRI_CHECK_MSG(magic == kMagic, "bad matrix magic in " << path);
  MatrixShape shape;
  shape.rows = static_cast<Index>(r.read_u64());
  shape.cols = static_cast<Index>(r.read_u64());
  return shape;
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
  r.seek(kHeaderBytes +
         static_cast<std::uint64_t>(r0) *
             static_cast<std::uint64_t>(shape.cols) * sizeof(double));
  r.read_doubles(m.data());
  return m;
}

MatrixShape read_matrix_shape(const dfs::Dfs& fs, const std::string& path,
                              IoStats* account) {
  auto r = fs.open(path, account);
  return read_header(r, path);
}

}  // namespace mri

#include "core/factor_io.hpp"

#include "common/error.hpp"

namespace mri::core {

namespace {
constexpr std::uint64_t kTriMagic = 0x4D52494E56545249ull;  // "MRINVTRI"
}  // namespace

void write_lower_packed(dfs::Dfs& fs, const std::string& path, const Matrix& m,
                        bool unit_diag, IoStats* account,
                        dfs::StorageTier tier) {
  MRI_REQUIRE(m.square(), "triangular-packed matrix must be square");
  const Index n = m.rows();
  const auto entries = static_cast<std::size_t>(
      unit_diag ? n * (n - 1) / 2 : n * (n + 1) / 2);
  dfs::Dfs::Writer w = fs.create(path, account, tier);
  w.reserve(3 * sizeof(std::uint64_t) + entries * sizeof(double));
  w.write_u64(kTriMagic);
  w.write_u64(static_cast<std::uint64_t>(n));
  w.write_u64(unit_diag ? 1 : 0);
  for (Index i = 0; i < n; ++i) {
    const Index len = unit_diag ? i : i + 1;
    w.write_doubles(m.row(i).subspan(0, static_cast<std::size_t>(len)));
  }
  w.close();
}

namespace {

/// Reads the header of a triangular-packed file; returns its order.
Index read_lower_header(dfs::Dfs::Reader& r, const std::string& path,
                        bool* unit_diag) {
  MRI_CHECK_MSG(r.read_u64() == kTriMagic,
                "bad triangular-packed magic in " << path);
  const std::uint64_t n = r.read_u64();
  *unit_diag = r.read_u64() != 0;
  // The order must account for exactly the doubles that follow, checked
  // before anything is sized from it. n < 2^31 keeps 24 + 8·n(n+1)/2 below
  // 2^64; at n = 2^31 it wraps to 24 + 2^33.
  const bool bounded = n < (std::uint64_t{1} << 31);
  const std::uint64_t entries =
      bounded ? (*unit_diag ? n * (n - 1) / 2 : n * (n + 1) / 2) : 0;
  if (!bounded ||
      r.size() != 3 * sizeof(std::uint64_t) + entries * sizeof(double)) {
    throw DfsError("triangular-packed file " + path + ": order " +
                   std::to_string(n) + " does not match its " +
                   std::to_string(r.size()) + " bytes");
  }
  return static_cast<Index>(n);
}

/// The rows of the file behind `r` (header read), each straight into `dst`.
void read_lower_rows(dfs::Dfs::Reader& r, Index n, bool unit_diag,
                     const RowDest& dst) {
  for (Index i = 0; i < n; ++i) {
    const Index len = unit_diag ? i : i + 1;
    double* row = dst.row(i);
    r.read_doubles(std::span<double>(row, static_cast<std::size_t>(len)));
    if (unit_diag) row[i] = 1.0;
  }
}

}  // namespace

Matrix read_lower_packed(const dfs::Dfs& fs, const std::string& path,
                         IoStats* account) {
  auto r = fs.open(path, account);
  bool unit_diag = false;
  const Index n = read_lower_header(r, path, &unit_diag);
  Matrix m(n, n);
  read_lower_rows(r, n, unit_diag, RowDest{m.data().data(), n, {}});
  return m;
}

void read_lower_packed(const dfs::Dfs& fs, const std::string& path, Index n,
                       const RowDest& dst, IoStats* account) {
  auto r = fs.open(path, account);
  bool unit_diag = false;
  const Index stored = read_lower_header(r, path, &unit_diag);
  MRI_CHECK_MSG(stored == n, path << " holds an order-" << stored
                                  << " factor, expected order " << n);
  read_lower_rows(r, n, unit_diag, dst);
}

void write_permutation(dfs::Dfs& fs, const std::string& path,
                       const Permutation& perm, IoStats* account,
                       dfs::StorageTier tier) {
  dfs::Dfs::Writer w = fs.create(path, account, tier);
  w.reserve(sizeof(std::uint64_t) * static_cast<std::size_t>(1 + perm.size()));
  w.write_u64(static_cast<std::uint64_t>(perm.size()));
  for (Index i = 0; i < perm.size(); ++i) {
    w.write_u64(static_cast<std::uint64_t>(perm[i]));
  }
  w.close();
}

Permutation read_permutation(const dfs::Dfs& fs, const std::string& path,
                             IoStats* account) {
  auto r = fs.open(path, account);
  const auto n = static_cast<Index>(r.read_u64());
  std::vector<Index> map(static_cast<std::size_t>(n));
  for (auto& v : map) v = static_cast<Index>(r.read_u64());
  return Permutation(std::move(map));
}

}  // namespace mri::core

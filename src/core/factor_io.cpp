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
  dfs::Dfs::Writer w = fs.create(path, account, tier);
  w.write_u64(kTriMagic);
  w.write_u64(static_cast<std::uint64_t>(n));
  w.write_u64(unit_diag ? 1 : 0);
  for (Index i = 0; i < n; ++i) {
    const Index len = unit_diag ? i : i + 1;
    w.write_doubles(m.row(i).subspan(0, static_cast<std::size_t>(len)));
  }
  w.close();
}

Matrix read_lower_packed(const dfs::Dfs& fs, const std::string& path,
                         IoStats* account) {
  auto r = fs.open(path, account);
  MRI_CHECK_MSG(r.read_u64() == kTriMagic,
                "bad triangular-packed magic in " << path);
  const auto n = static_cast<Index>(r.read_u64());
  const bool unit_diag = r.read_u64() != 0;
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) {
    const Index len = unit_diag ? i : i + 1;
    r.read_doubles(m.row(i).subspan(0, static_cast<std::size_t>(len)));
    if (unit_diag) m(i, i) = 1.0;
  }
  return m;
}

void write_permutation(dfs::Dfs& fs, const std::string& path,
                       const Permutation& perm, IoStats* account,
                       dfs::StorageTier tier) {
  dfs::Dfs::Writer w = fs.create(path, account, tier);
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

#include "core/factor_io.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri::core {
namespace {

class FactorIoTest : public ::testing::Test {
 protected:
  dfs::Dfs fs{2};
};

TEST_F(FactorIoTest, LowerPackedRoundTripUnitDiag) {
  const Matrix l = random_unit_lower_triangular(11, /*seed=*/3);
  write_lower_packed(fs, "/l.tri", l, /*unit_diag=*/true);
  EXPECT_EQ(read_lower_packed(fs, "/l.tri"), l);
}

TEST_F(FactorIoTest, LowerPackedRoundTripWithDiag) {
  const Matrix u = random_upper_triangular(9, /*seed=*/4);
  const Matrix ut = transpose(u);
  write_lower_packed(fs, "/ut.tri", ut, /*unit_diag=*/false);
  EXPECT_EQ(read_lower_packed(fs, "/ut.tri"), ut);
}

TEST_F(FactorIoTest, LowerPackedHalvesBytes) {
  const Index n = 32;
  const Matrix l = random_unit_lower_triangular(n, /*seed=*/5);
  IoStats io;
  write_lower_packed(fs, "/l32.tri", l, /*unit_diag=*/true, &io);
  // Strictly-lower entries only: n(n-1)/2 doubles + 24-byte header.
  EXPECT_EQ(io.bytes_written, 24u + n * (n - 1) / 2 * sizeof(double));
}

TEST_F(FactorIoTest, LowerPackedPlusUpperIsExactlyNSquared) {
  // The paper's Table 1 write volume: an l file and a uᵀ file together hold
  // exactly n² doubles.
  const Index n = 16;
  IoStats io;
  write_lower_packed(fs, "/a.tri", random_unit_lower_triangular(n, 6), true,
                     &io);
  write_lower_packed(fs, "/b.tri", transpose(random_upper_triangular(n, 7)),
                     false, &io);
  EXPECT_EQ(io.bytes_written, 48u + n * n * sizeof(double));
}

TEST_F(FactorIoTest, LowerPackedReadsIntoADestination) {
  const Matrix l = random_unit_lower_triangular(7, /*seed=*/8);
  write_lower_packed(fs, "/l.tri", l, /*unit_diag=*/true);
  // At (2, 3) of a larger matrix pre-filled with a marker: the triangle and
  // the unit diagonal land in place, nothing above the diagonal is touched.
  Matrix big(10, 12);
  for (double& v : big.data()) v = -7.0;
  IoStats into_io, whole_io;
  read_lower_packed(fs, "/l.tri", 7,
                    RowDest{big.data().data() + 2 * 12 + 3, 12, {}}, &into_io);
  const Matrix whole = read_lower_packed(fs, "/l.tri", &whole_io);
  EXPECT_EQ(into_io, whole_io);
  for (Index i = 0; i < 10; ++i) {
    for (Index j = 0; j < 12; ++j) {
      const bool lower = i >= 2 && i < 9 && j >= 3 && j - 3 <= i - 2;
      EXPECT_EQ(big(i, j), lower ? whole(i - 2, j - 3) : -7.0) << i << "," << j;
    }
  }
  EXPECT_THROW(read_lower_packed(fs, "/l.tri", 6,
                                 RowDest{big.data().data(), 12, {}}),
               Error);
}

TEST_F(FactorIoTest, LowerPackedOrderMustMatchTheFileSize) {
  write_lower_packed(fs, "/u.tri", transpose(random_upper_triangular(5, 9)),
                     /*unit_diag=*/false);
  std::string bytes = fs.read_text("/u.tri");
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + 8, &huge, sizeof huge);  // the order field
  fs.write_text("/bad.tri", bytes);
  EXPECT_THROW(read_lower_packed(fs, "/bad.tri"), DfsError);
  // Order 2^31, the first order whose byte count overflows 64 bits.
  const std::uint64_t wraps = std::uint64_t{1} << 31;
  std::memcpy(bytes.data() + 8, &wraps, sizeof wraps);
  fs.write_text("/wraps.tri", bytes);
  EXPECT_THROW(read_lower_packed(fs, "/wraps.tri"), DfsError);
  bytes = fs.read_text("/u.tri");
  fs.write_text("/short.tri", bytes.substr(0, bytes.size() - 8));
  EXPECT_THROW(read_lower_packed(fs, "/short.tri"), DfsError);
}

TEST_F(FactorIoTest, PermutationRoundTrip) {
  Permutation p(std::vector<Index>{3, 1, 4, 0, 2});
  write_permutation(fs, "/p.bin", p);
  EXPECT_EQ(read_permutation(fs, "/p.bin"), p);
}

TEST_F(FactorIoTest, PermutationReadValidates) {
  // Corrupt file: duplicate entries must be rejected on read.
  auto w = fs.create("/bad_p");
  w.write_u64(2);
  w.write_u64(0);
  w.write_u64(0);
  w.close();
  EXPECT_THROW(read_permutation(fs, "/bad_p"), InvalidArgument);
}

TEST_F(FactorIoTest, PermutationAccounting) {
  IoStats io;
  write_permutation(fs, "/p2.bin", Permutation(100), &io);
  EXPECT_EQ(io.bytes_written, 101u * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace mri::core

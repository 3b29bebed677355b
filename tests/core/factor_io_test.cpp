#include "core/factor_io.hpp"

#include <gtest/gtest.h>

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

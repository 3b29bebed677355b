// The ScaLAPACK-style baseline: block-cyclic distribution arithmetic,
// distributed LU correctness, inversion correctness, and the Table 1/2
// transfer-scaling behaviour the Figure 8 comparison rests on.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "linalg/solve.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "scalapack/invert.hpp"
#include "scalapack/distribution.hpp"

namespace mri {

// gtest prints a failed IoStats comparison field by field.
void PrintTo(const IoStats& io, std::ostream* os) {
  *os << "{written " << io.bytes_written << ", read " << io.bytes_read
      << ", transferred " << io.bytes_transferred << ", replicated "
      << io.bytes_replicated << ", memory " << io.bytes_written_memory << "/"
      << io.bytes_read_memory << ", spilled " << io.bytes_spilled
      << ", parity " << io.bytes_parity << ", reconstructed "
      << io.bytes_reconstructed << ", degraded " << io.degraded_reads
      << ", checksummed " << io.bytes_checksummed << ", mults " << io.mults
      << ", adds " << io.adds << "}";
}

}  // namespace mri

namespace mri::scalapack {
namespace {

TEST(Distribution, OwnershipRoundRobin) {
  Distribution d(100, 16, 3);
  EXPECT_EQ(d.num_blocks(), 7);  // ceil(100/16)
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(4), 1);
  EXPECT_EQ(d.width(6), 4);  // last block is ragged
  EXPECT_EQ(d.blocks_of(1), (std::vector<Index>{1, 4}));
  EXPECT_EQ(d.column_owner(17), 1);
  // Rank 0 keeps blocks 0, 3 and 6 side by side in its slab.
  EXPECT_EQ(d.local_start(3), 16);
  EXPECT_EQ(d.local_start(6), 32);
  EXPECT_EQ(d.local_cols(0), 36);
  EXPECT_EQ(d.local_cols(1), 32);
}

TEST(Distribution, ElementsSumToMatrix) {
  Distribution d(97, 8, 4);
  std::uint64_t total = 0;
  for (int r = 0; r < 4; ++r) total += d.elements_of(r);
  EXPECT_EQ(total, 97u * 97u);
}

CostModel quiet_model() {
  CostModel m = CostModel::ec2_medium();
  m.node_speed_variance = 0.0;
  return m;
}

class ScalapackSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScalapackSweep, InvertsCorrectly) {
  const int ranks = GetParam();
  Cluster cluster(ranks, quiet_model());
  const Matrix a = random_matrix(64, /*seed=*/ranks);
  Options opts;
  opts.block_width = 16;
  const InvertResult r = invert(a, cluster, opts);
  EXPECT_LT(inversion_residual(a, r.inverse), 1e-9);
  EXPECT_LT(max_abs_diff(r.inverse, invert_via_lu(a)), 1e-8);
  EXPECT_GT(r.report.sim_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ScalapackSweep, ::testing::Values(1, 2, 3, 4, 8));

TEST(Scalapack, RaggedBlocksAndPivoting) {
  Cluster cluster(3, quiet_model());
  const Matrix a = random_pivot_hostile(50, /*seed=*/5);
  Options opts;
  opts.block_width = 7;  // does not divide 50
  const InvertResult r = invert(a, cluster, opts);
  EXPECT_LT(inversion_residual(a, r.inverse), 1e-6);
}

TEST(Scalapack, SingularThrows) {
  Cluster cluster(2, quiet_model());
  Matrix a = random_matrix(16, /*seed=*/6);
  for (Index j = 0; j < 16; ++j) a(0, j) = 0.0;
  Options opts;
  opts.block_width = 8;
  EXPECT_THROW(invert(a, cluster, opts), NumericalError);
}

TEST(Scalapack, TransferGrowsWithRanks) {
  // Tables 1 and 2: ScaLAPACK's aggregate transfer is Θ(m0 · n²) — per-rank
  // volume does not shrink as the cluster grows. This is the structural
  // reason our algorithm wins at scale (Figure 8).
  const Matrix a = random_matrix(64, /*seed=*/7);
  Options opts;
  opts.block_width = 8;

  Cluster c2(2, quiet_model());
  Cluster c8(8, quiet_model());
  const auto r2 = invert(a, c2, opts);
  const auto r8 = invert(a, c8, opts);
  const double ratio =
      static_cast<double>(r8.report.io.bytes_transferred) /
      static_cast<double>(r2.report.io.bytes_transferred);
  // 4x the ranks -> roughly 4x the aggregate transfer (tree sends add a bit).
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 8.0);
}

TEST(Scalapack, SingleRankHasNoTransfer) {
  Cluster cluster(1, quiet_model());
  const Matrix a = random_matrix(32, /*seed=*/8);
  Options opts;
  opts.block_width = 8;
  const auto r = invert(a, cluster, opts);
  EXPECT_EQ(r.report.io.bytes_transferred, 0u);
  EXPECT_LT(inversion_residual(a, r.inverse), 1e-10);
}

TEST(Scalapack, FlopsMatchTheory) {
  // LU ≈ (2/3)n³ total flops (mults+adds), inversion ≈ (4/3)n³.
  const Index n = 96;
  Cluster cluster(4, quiet_model());
  const Matrix a = random_matrix(n, /*seed=*/9);
  Options opts;
  opts.block_width = 16;
  const auto r = invert(a, cluster, opts);
  const double cube = static_cast<double>(n) * n * n;
  const double flops = static_cast<double>(r.report.io.flops());
  EXPECT_GT(flops, 1.5 * cube);  // ~2/3 + ~4/3 = 2 n³, minus lower-order
  EXPECT_LT(flops, 2.6 * cube);
}

// The baseline's simulated clock, pinned bit for bit: sim_seconds and every
// IoStats field of the whole run and of both stages. Flops are charged by
// closed form and messages by size, so these follow the shapes and the
// pivot rows only, not the rounding of the real arithmetic.
struct PinnedStage {
  double sim_seconds;
  std::uint64_t written, read, transferred, mults, adds;
};

void expect_stage(const SimReport& got, const PinnedStage& want,
                  const std::string& what) {
  EXPECT_EQ(got.sim_seconds, want.sim_seconds) << what;
  IoStats io;
  io.bytes_written = want.written;
  io.bytes_read = want.read;
  io.bytes_transferred = want.transferred;
  io.mults = want.mults;
  io.adds = want.adds;
  EXPECT_EQ(got.io, io) << what;  // every other field stays zero
}

TEST(Scalapack, SimulatedClockIsPinned) {
  struct Pinned {
    Index n, width;
    int ranks;
    Matrix a;
    PinnedStage report, lu, inversion;
  };
  const Pinned runs[] = {
      {64, 16, 4, random_matrix(64, /*seed=*/4),
       {0.006417301333333336, 32768, 32768, 161280, 263904, 261888},
       {0.0038683600000000004, 0, 32768, 62976, 88128, 86112},
       {0.0025489413333333356, 32768, 0, 98304, 175776, 175776}},
      // The last block is ragged.
      {50, 7, 3, random_pivot_hostile(50, /*seed=*/5),
       {0.0064660083333333354, 20000, 20000, 63552, 126125, 124900},
       {0.0047674910000000004, 0, 20000, 23552, 42175, 40950},
       {0.001698517333333335, 20000, 0, 40000, 83950, 83950}},
      // Ranks 4-7 own no block.
      {64, 16, 8, random_matrix(64, /*seed=*/8),
       {0.010369131999999996, 32768, 32768, 376320, 263904, 261888},
       {0.0047311519999999989, 0, 32768, 146944, 88128, 86112},
       {0.0056379799999999973, 32768, 0, 229376, 175776, 175776}},
  };
  for (const Pinned& run : runs) {
    Cluster cluster(run.ranks, quiet_model());
    Options opts;
    opts.block_width = run.width;
    const InvertResult r = invert(run.a, cluster, opts);
    std::string what = "n=";
    what += std::to_string(run.n) + " width=" + std::to_string(run.width) +
            " ranks=" + std::to_string(run.ranks);
    expect_stage(r.report, run.report, what + " report");
    expect_stage(r.lu_stage, run.lu, what + " lu_stage");
    expect_stage(r.inversion_stage, run.inversion, what + " inversion_stage");
    EXPECT_LT(inversion_residual(run.a, r.inverse), 1e-9) << what;
  }
}

}  // namespace
}  // namespace mri::scalapack


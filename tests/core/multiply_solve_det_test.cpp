// The composable library operations built on the pipeline substrate:
// the block-wrapped MapReduce multiply job, A·X = B solving, and the
// determinant read off the LU factors.
#include <gtest/gtest.h>

#include <cmath>

#include "core/inverter.hpp"
#include "core/multiply_job.hpp"
#include "linalg/lu.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri::core {
namespace {

struct Fixture {
  explicit Fixture(int m0)
      : cluster(m0, CostModel::ec2_medium()),
        fs(m0, dfs::DfsConfig{}, &metrics),
        pool(4),
        runner(&cluster, &fs, &pool, nullptr, &metrics),
        pipeline(&runner) {
    for (int j = 0; j < m0; ++j) {
      const std::string p = "/Root/MapInput/A." + std::to_string(j);
      fs.write_text(p, std::to_string(j));
      control_files.push_back(p);
    }
  }

  MetricsRegistry metrics;
  Cluster cluster;
  dfs::Dfs fs;
  ThreadPool pool;
  mr::JobRunner runner;
  mr::JobGraph pipeline;
  std::vector<std::string> control_files;
};

class MultiplySweep
    : public ::testing::TestWithParam<std::tuple<Index, Index, Index, int>> {};

TEST_P(MultiplySweep, MatchesSerial) {
  const auto [r, k, c, m0] = GetParam();
  Fixture fx(m0);
  const Matrix a = random_matrix(r, k, /*seed=*/r + k, -1, 1);
  const Matrix b = random_matrix(k, c, /*seed=*/k + c + 1, -1, 1);
  const Matrix product = mapreduce_multiply(&fx.pipeline, &fx.fs, m0, a, b,
                                            "/Root", fx.control_files);
  EXPECT_LT(max_abs_diff(product, matmul(a, b)), 1e-10);
  EXPECT_EQ(fx.pipeline.job_count(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiplySweep,
    ::testing::Values(std::make_tuple<Index, Index, Index, int>(16, 16, 16, 1),
                      std::make_tuple<Index, Index, Index, int>(32, 16, 8, 4),
                      std::make_tuple<Index, Index, Index, int>(7, 23, 11, 6),
                      std::make_tuple<Index, Index, Index, int>(64, 64, 64, 16),
                      std::make_tuple<Index, Index, Index, int>(5, 5, 5, 8)));

TEST(MultiplyJob, ShapeMismatchThrows) {
  Fixture fx(2);
  EXPECT_THROW(mapreduce_multiply(&fx.pipeline, &fx.fs, 2, Matrix(3, 4),
                                  Matrix(5, 2), "/Root", fx.control_files),
               InvalidArgument);
}

TEST(MultiplyJob, ChargesBlockWrapReads) {
  Fixture fx(16);
  const Index n = 64;
  const Matrix a = random_matrix(n, /*seed=*/3);
  const Matrix b = random_matrix(n, /*seed=*/4);
  mapreduce_multiply(&fx.pipeline, &fx.fs, 16, a, b, "/Root",
                     fx.control_files);
  // §6.2: total reducer reads ≈ (f1+f2)·n² elements = 8n² at m0=16 (+
  // headers); far below the naive (m0+1)·n².
  const double elements =
      static_cast<double>(fx.pipeline.total_io().bytes_read) / 8.0;
  const double n2 = static_cast<double>(n * n);
  EXPECT_LT(elements, 10.0 * n2);
  EXPECT_GT(elements, 7.0 * n2);
}

TEST(Solve, MatchesDirectSolve) {
  MetricsRegistry metrics;
  Cluster cluster(4, CostModel::ec2_medium());
  dfs::Dfs fs(4, dfs::DfsConfig{}, &metrics);
  ThreadPool pool(4);
  MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics);
  const Matrix a = random_matrix(48, /*seed=*/5);
  const Matrix b = random_matrix(48, 6, /*seed=*/6, -1, 1);
  InversionOptions opts;
  opts.nb = 12;
  const auto result = inverter.solve(a, b, opts);
  EXPECT_LT(max_abs_diff(matmul(a, result.x), b), 1e-8);
  // Inversion jobs (2^d + 1 with d = ceil(log2(48/12)) = 2) + one multiply.
  EXPECT_EQ(result.report.jobs, total_job_count(48, 12) + 1);
}

TEST(Determinant, MatchesSerialLu) {
  MetricsRegistry metrics;
  Cluster cluster(4, CostModel::ec2_medium());
  dfs::Dfs fs(4, dfs::DfsConfig{}, &metrics);
  ThreadPool pool(4);
  MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics);

  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Matrix a = random_matrix(24, seed);
    InversionOptions opts;
    opts.nb = 6;
    const auto result = inverter.invert(a, opts);

    // Serial reference determinant from a plain LU.
    const LuResult lu = lu_decompose(a);
    double ref_log = 0.0;
    int ref_sign = lu.perm.parity();
    for (Index i = 0; i < 24; ++i) {
      const double u = lu.packed(i, i);
      ref_log += std::log(std::abs(u));
      if (u < 0.0) ref_sign = -ref_sign;
    }
    EXPECT_NEAR(result.det_log_abs, ref_log, 1e-8) << "seed " << seed;
    EXPECT_EQ(result.det_sign, ref_sign) << "seed " << seed;
  }
}

TEST(Determinant, KnownSmallCases) {
  MetricsRegistry metrics;
  Cluster cluster(2, CostModel::ec2_medium());
  dfs::Dfs fs(2, dfs::DfsConfig{}, &metrics);
  ThreadPool pool(2);
  MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics);
  // det([[2,0,..],[0,3,..]] diag(2,3,4,5)) = 120.
  Matrix a(4, 4);
  a(0, 0) = 2;
  a(1, 1) = 3;
  a(2, 2) = 4;
  a(3, 3) = 5;
  InversionOptions opts;
  opts.nb = 2;
  const auto result = inverter.invert(a, opts);
  EXPECT_EQ(result.det_sign, 1);
  EXPECT_NEAR(std::exp(result.det_log_abs), 120.0, 1e-9);
}

TEST(Permutation, ParityBasics) {
  EXPECT_EQ(Permutation(5).parity(), 1);
  Permutation p(4);
  p.swap(0, 1);
  EXPECT_EQ(p.parity(), -1);
  p.swap(2, 3);
  EXPECT_EQ(p.parity(), 1);
  // A 3-cycle is even.
  EXPECT_EQ(Permutation(std::vector<Index>{1, 2, 0}).parity(), 1);
}

}  // namespace
}  // namespace mri::core

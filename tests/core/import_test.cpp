// Parallel text-matrix import (Hadoop TextInputFormat split semantics):
// byte splits extended to whole lines, two-pass row-offset computation.
#include <gtest/gtest.h>

#include "core/import.hpp"
#include "core/inverter.hpp"
#include "matrix/dfs_io.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "matrix/text_format.hpp"

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

class ImportSweep : public ::testing::TestWithParam<std::tuple<Index, int>> {};

TEST_P(ImportSweep, RoundTripsThroughText) {
  const auto [n, m0] = GetParam();
  Fixture fx(m0);
  const Matrix a = random_matrix(n, /*seed=*/n * 7 + m0);
  fx.fs.write_text("/Root/a.txt", matrix_to_text(a));

  const Index imported =
      import_text_matrix(&fx.pipeline, &fx.fs, "/Root/a.txt", "/Root/a.bin",
                         fx.control_files);
  EXPECT_EQ(imported, n);
  EXPECT_EQ(read_matrix(fx.fs, "/Root/a.bin"), a);
  EXPECT_EQ(fx.pipeline.job_count(), 2);  // count pass + parse pass
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ImportSweep,
    ::testing::Values(std::make_tuple<Index, int>(1, 1),
                      std::make_tuple<Index, int>(3, 4),  // fewer rows than mappers
                      std::make_tuple<Index, int>(16, 1),
                      std::make_tuple<Index, int>(16, 3),
                      std::make_tuple<Index, int>(33, 8),
                      std::make_tuple<Index, int>(64, 5)));

TEST(Import, ExtremeValuesSurvive) {
  Fixture fx(3);
  Matrix a(2, 2, {1e-300, -1e300, 3.141592653589793, -0.0});
  fx.fs.write_text("/Root/a.txt", matrix_to_text(a));
  import_text_matrix(&fx.pipeline, &fx.fs, "/Root/a.txt", "/Root/a.bin",
                     fx.control_files);
  EXPECT_EQ(read_matrix(fx.fs, "/Root/a.bin"), a);
}

TEST(Import, NonSquareRejected) {
  Fixture fx(2);
  fx.fs.write_text("/Root/rect.txt", "1 2 3\n4 5 6\n");
  EXPECT_THROW(import_text_matrix(&fx.pipeline, &fx.fs, "/Root/rect.txt",
                                  "/Root/rect.bin", fx.control_files),
               InvalidArgument);
}

TEST(Import, EmptyRejected) {
  Fixture fx(2);
  fx.fs.write_text("/Root/empty.txt", "\n\n");
  EXPECT_THROW(import_text_matrix(&fx.pipeline, &fx.fs, "/Root/empty.txt",
                                  "/Root/empty.bin", fx.control_files),
               InvalidArgument);
}

TEST(Import, FeedsTheInversionPipeline) {
  // End-to-end: text in, inverse out (the paper's full data path).
  Fixture fx(4);
  const Matrix a = random_matrix(32, /*seed=*/11);
  fx.fs.write_text("/Root/a.txt", matrix_to_text(a));
  import_text_matrix(&fx.pipeline, &fx.fs, "/Root/a.txt", "/Root/a.bin",
                     fx.control_files);

  MapReduceInverter inverter(&fx.cluster, &fx.fs, &fx.pool, nullptr,
                             &fx.metrics);
  InversionOptions opts;
  opts.nb = 8;
  const auto result = inverter.invert_dfs("/Root/a.bin", opts);
  EXPECT_LT(inversion_residual(a, result.inverse), 1e-8);
}

}  // namespace
}  // namespace mri::core

// The §8 extension: in-memory intermediates ("implementing our technique on
// Spark... would improve performance by reducing read I/O"), driven through
// MapReduceInverter with the spin engine selected.
#include <gtest/gtest.h>

#include "core/inverter.hpp"
#include "linalg/solve.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri::core {
namespace {

struct Fixture {
  explicit Fixture(int m0)
      : cluster(m0, CostModel::ec2_medium()),
        fs(m0, dfs::DfsConfig{}, &metrics),
        pool(4) {}

  MapReduceInverter::Result run(const Matrix& a, InversionOptions opts) {
    MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics);
    return inverter.invert(a, opts);
  }

  MetricsRegistry metrics;
  Cluster cluster;
  dfs::Dfs fs;
  ThreadPool pool;
};

TEST(SparkMode, SameInverse) {
  const Matrix a = random_matrix(48, /*seed=*/1);
  InversionOptions opts;
  opts.nb = 12;
  opts.engine = EngineKind::kSpin;
  Fixture fx(4);
  const auto result = fx.run(a, opts);
  EXPECT_LT(inversion_residual(a, result.inverse), 1e-8);
  EXPECT_LT(max_abs_diff(result.inverse, invert_via_lu(a)), 1e-8);
}

TEST(SparkMode, MovesIntermediateWritesToMemory) {
  const Matrix a = random_matrix(64, /*seed=*/2);
  InversionOptions opts;
  opts.nb = 16;

  Fixture disk(4);
  const auto on_disk = disk.run(a, opts);

  opts.engine = EngineKind::kSpin;
  Fixture memory(4);
  const auto in_memory = memory.run(a, opts);

  // Disk mode: no memory-tier writes. Spin engine: all intermediates are
  // memory-tier; the only disk writes left are the final inverse blocks.
  EXPECT_EQ(on_disk.report.io.bytes_written_memory, 0u);
  EXPECT_GT(in_memory.report.io.bytes_written_memory, 0u);
  const std::uint64_t n2_bytes = 64u * 64u * sizeof(double);
  EXPECT_LT(in_memory.report.io.bytes_written, 2 * n2_bytes);
  EXPECT_GT(on_disk.report.io.bytes_written,
            2 * in_memory.report.io.bytes_written);
  // No replication traffic for memory-tier intermediates.
  EXPECT_LT(in_memory.report.io.bytes_replicated,
            on_disk.report.io.bytes_replicated);
}

TEST(SparkMode, FasterThanDiskMode) {
  // The predicted §8 outcome: same pipeline, less write/replication time.
  const Matrix a = random_matrix(64, /*seed=*/3);
  InversionOptions opts;
  opts.nb = 8;

  Fixture disk(8);
  const auto on_disk = disk.run(a, opts);
  opts.engine = EngineKind::kSpin;
  Fixture memory(8);
  const auto in_memory = memory.run(a, opts);

  EXPECT_LT(in_memory.report.sim_seconds, on_disk.report.sim_seconds);
  // Same pipeline shape.
  EXPECT_EQ(in_memory.report.jobs, on_disk.report.jobs);
}

TEST(SparkMode, ComposesWithOtherOptions) {
  const Matrix a = random_matrix(40, /*seed=*/4);
  InversionOptions opts;
  opts.nb = 10;
  opts.engine = EngineKind::kSpin;
  opts.block_wrap = false;
  opts.transposed_u = false;
  Fixture fx(3);
  const auto result = fx.run(a, opts);
  EXPECT_LT(inversion_residual(a, result.inverse), 1e-8);
}

}  // namespace
}  // namespace mri::core

// The pluggable multiply strategies: multi-round vs block wrap equivalence,
// round/job scheduling, shuffle-byte accounting (the space-round tradeoff)
// and report determinism.
#include "core/multiply_strategy.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/inverter.hpp"
#include "mapreduce/trace_export.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "sim/run_report.hpp"

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

MultiplyStrategyOptions multiround(int replication) {
  MultiplyStrategyOptions opts;
  opts.strategy = MultiplyStrategyKind::kMultiRound;
  opts.replication = replication;
  return opts;
}

TEST(MultiplyStrategy, NamesParseAndRoundTrip) {
  MultiplyStrategyKind kind = MultiplyStrategyKind::kWrap;
  EXPECT_TRUE(parse_multiply_strategy("multiround", &kind));
  EXPECT_EQ(kind, MultiplyStrategyKind::kMultiRound);
  EXPECT_TRUE(parse_multiply_strategy("wrap", &kind));
  EXPECT_EQ(kind, MultiplyStrategyKind::kWrap);
  EXPECT_FALSE(parse_multiply_strategy("broadcast", &kind));
  EXPECT_EQ(kind, MultiplyStrategyKind::kWrap);  // untouched on failure
  EXPECT_STREQ(multiply_strategy_name(MultiplyStrategyKind::kWrap), "wrap");
  EXPECT_STREQ(multiply_strategy_name(MultiplyStrategyKind::kMultiRound),
               "multiround");
  EXPECT_STREQ(make_multiply_strategy(MultiplyStrategyKind::kMultiRound)
                   ->name(),
               "multiround");
}

class MultiRoundSweep : public ::testing::TestWithParam<int> {};

TEST_P(MultiRoundSweep, MatchesWrapResultAndSchedulesCeilRounds) {
  const int r = GetParam();
  const int m0 = 8;
  const Index n = 48;
  const Matrix a = random_matrix(n, n, /*seed=*/1, -1, 1);
  const Matrix b = random_matrix(n, 24, /*seed=*/2, -1, 1);

  Fixture wrap_fx(m0);
  const Matrix wrap = mapreduce_multiply(&wrap_fx.pipeline, &wrap_fx.fs, m0, a,
                                         b, "/Root", wrap_fx.control_files);

  Fixture fx(m0);
  MultiplyPlan plan;
  const Matrix c =
      mapreduce_multiply(&fx.pipeline, &fx.fs, m0, a, b, "/Root",
                         fx.control_files, multiround(r), {}, &plan);
  EXPECT_LT(max_abs_diff(c, wrap), 1e-11);
  EXPECT_LT(max_abs_diff(c, matmul(a, b)), 1e-10);
  const int clamped = std::min(r, m0);
  const int expected_rounds = (m0 + clamped - 1) / clamped;
  EXPECT_EQ(plan.rounds, expected_rounds);
  EXPECT_EQ(plan.segments, m0);
  EXPECT_EQ(plan.replication, clamped);
  EXPECT_EQ(fx.pipeline.job_count(), expected_rounds);
}

INSTANTIATE_TEST_SUITE_P(Replication, MultiRoundSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 100));

TEST(MultiplyStrategy, FullReplicationDegeneratesToOneRound) {
  const int m0 = 6;
  const Matrix a = random_matrix(30, 30, /*seed=*/3, -1, 1);
  const Matrix b = random_matrix(30, 18, /*seed=*/4, -1, 1);
  Fixture fx(m0);
  MultiplyPlan plan;
  mapreduce_multiply(&fx.pipeline, &fx.fs, m0, a, b, "/Root", fx.control_files,
                     multiround(m0), {}, &plan);
  EXPECT_EQ(plan.rounds, 1);
  EXPECT_EQ(plan.replication, m0);  // clamped even when asked for more
  EXPECT_EQ(fx.pipeline.job_count(), 1);
}

TEST(MultiplyStrategy, ShuffleBytesTradeRoundsForMemory) {
  // The space-round tradeoff: raising r shrinks the round count and the
  // carry-tile traffic (2(R-1) extra C-sized passes) but grows the per-task
  // operand footprint. Operand reads themselves are r-independent (block
  // ingest charges exact segment bytes).
  const int m0 = 8;
  const Index n = 64;
  const Matrix a = random_matrix(n, n, /*seed=*/5, -1, 1);
  const Matrix b = random_matrix(n, n, /*seed=*/6, -1, 1);

  std::uint64_t prev_total = ~0ull;
  std::uint64_t prev_peak = 0;
  int prev_rounds = m0 + 1;
  for (const int r : {1, 2, 4, 8}) {
    Fixture fx(m0);
    MultiplyPlan plan;
    mapreduce_multiply(&fx.pipeline, &fx.fs, m0, a, b, "/Root",
                       fx.control_files, multiround(r), {}, &plan);
    const IoStats io = fx.pipeline.total_io();
    const std::uint64_t total = io.bytes_read + io.bytes_written;
    EXPECT_LT(plan.rounds, prev_rounds) << "r=" << r;
    EXPECT_LT(total, prev_total) << "r=" << r;
    EXPECT_GE(plan.peak_task_bytes, prev_peak) << "r=" << r;
    prev_total = total;
    prev_peak = plan.peak_task_bytes;
    prev_rounds = plan.rounds;
  }
}

TEST(MultiplyStrategy, CarryTrafficMatchesModel) {
  // r=1 vs r=m0: the byte difference between the R-round run and the
  // single-round run is the carry chain — 2(R-1)·|C| elements (each inner
  // round writes its carry once and the next round reads it back).
  const int m0 = 4;
  const Index n = 40;
  const Matrix a = random_matrix(n, n, /*seed=*/7, -1, 1);
  const Matrix b = random_matrix(n, n, /*seed=*/8, -1, 1);

  auto run_bytes = [&](int r) {
    Fixture fx(m0);
    mapreduce_multiply(&fx.pipeline, &fx.fs, m0, a, b, "/Root",
                       fx.control_files, multiround(r));
    const IoStats io = fx.pipeline.total_io();
    return io.bytes_read + io.bytes_written;
  };
  const std::uint64_t chained = run_bytes(1);   // R = 4 rounds
  const std::uint64_t one_shot = run_bytes(4);  // R = 1 round
  const std::uint64_t carry_elements = 2ull * (4 - 1) * n * n;
  const std::uint64_t diff = chained - one_shot;
  // Exact up to per-file headers on the carry tiles.
  EXPECT_GE(diff, carry_elements * 8);
  EXPECT_LT(diff, carry_elements * 8 + 4096);
}

TEST(MultiplyStrategy, MultiRoundJobsAreNamedPerRound) {
  const int m0 = 4;
  Fixture fx(m0);
  const Matrix a = random_matrix(16, 16, /*seed=*/9, -1, 1);
  const Matrix b = random_matrix(16, 16, /*seed=*/10, -1, 1);
  mapreduce_multiply(&fx.pipeline, &fx.fs, m0, a, b, "/Root",
                     fx.control_files, multiround(2));
  const std::vector<mr::JobResult>& jobs = fx.pipeline.jobs();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "multiply-r0");
  EXPECT_EQ(jobs[1].name, "multiply-r1");
}

TEST(MultiplyStrategy, SolveWithMultiRoundMatchesWrapSolve) {
  const Matrix a = random_matrix(48, /*seed=*/11);
  const Matrix b = random_matrix(48, 6, /*seed=*/12, -1, 1);

  auto solve_with = [&](const MultiplyStrategyOptions& strategy) {
    MetricsRegistry metrics;
    Cluster cluster(4, CostModel::ec2_medium());
    dfs::Dfs fs(4, dfs::DfsConfig{}, &metrics);
    ThreadPool pool(4);
    MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics);
    InversionOptions opts;
    opts.nb = 12;
    opts.multiply = strategy;
    return inverter.solve(a, b, opts);
  };

  const auto wrap = solve_with({});
  const auto multi = solve_with(multiround(2));
  EXPECT_LT(max_abs_diff(matmul(a, multi.x), b), 1e-8);
  EXPECT_LT(max_abs_diff(multi.x, wrap.x), 1e-10);
  EXPECT_EQ(multi.multiply_plan.rounds, 2);  // m0=4, r=2
  EXPECT_EQ(wrap.multiply_plan.rounds, 1);
  // The strategy adds (rounds - 1) jobs over the wrap timeline.
  EXPECT_EQ(multi.report.jobs, wrap.report.jobs + 1);
}

TEST(MultiplyStrategy, SameSeedRunsProduceBitIdenticalReports) {
  const Matrix a = random_matrix(36, /*seed=*/13);
  const Matrix b = random_matrix(36, 4, /*seed=*/14, -1, 1);

  auto report_json = [&] {
    MetricsRegistry metrics;
    Cluster cluster(4, CostModel::ec2_medium());
    dfs::Dfs fs(4, dfs::DfsConfig{}, &metrics);
    ThreadPool pool(4);
    MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics);
    InversionOptions opts;
    opts.nb = 12;
    opts.multiply = multiround(3);
    const auto result = inverter.solve(a, b, opts);
    const RunReport report = mr::build_run_report(
        result.jobs, cluster, &metrics, result.master_spans);
    return run_report_json(report);
  };

  const std::string first = report_json();
  const std::string second = report_json();
  EXPECT_EQ(first, second);
  // The kernel section is part of the stable schema even when defaulted.
  EXPECT_NE(first.find("\"kernel\":{\"backend\":\""), std::string::npos);
  EXPECT_NE(first.find("\"multiply_strategy\":\"wrap\""), std::string::npos);
}

}  // namespace
}  // namespace mri::core

// End-to-end tests of the full MapReduce inversion pipeline: correctness of
// the inverse against the serial reference and the paper's §7.2 residual
// criterion, across matrix orders, cluster sizes, recursion depths and all
// optimization toggles.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <thread>

#include "core/inverter.hpp"
#include "linalg/solve.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri {
namespace {

/// Counts DFS opens by whether they came from the thread that built it (a
/// tier listener sees every open).
class OpenThreadCounter : public dfs::TierListener {
 public:
  void on_commit(const std::string&, dfs::StorageTier, std::uint64_t, int,
                 std::span<const std::byte>, const IoStats*) override {}
  void on_open(const std::string&, dfs::StorageTier, std::uint64_t) override {
    (std::this_thread::get_id() == caller_ ? on_caller : off_caller)
        .fetch_add(1);
  }
  void on_remove(const std::string&) override {}

  std::atomic<int> on_caller{0};
  std::atomic<int> off_caller{0};

 private:
  const std::thread::id caller_ = std::this_thread::get_id();
};

struct PipelineFixture {
  PipelineFixture(int m0, CostModel model = CostModel::ec2_medium())
      : cluster(m0, model),
        fs(m0, dfs::DfsConfig{}, &metrics),
        pool(4) {}

  MetricsRegistry metrics;
  Cluster cluster;
  dfs::Dfs fs;
  ThreadPool pool;

  core::MapReduceInverter::Result run(const Matrix& a,
                                      core::InversionOptions opts) {
    core::MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics);
    return inverter.invert(a, opts);
  }
};

TEST(SizeRule, TheBoundRunsOnTheCallerAndTheBoundPlusOneOnThePool) {
  ThreadPool pool(2);
  EXPECT_EQ(core::task_pool_for(core::kCallerThreadMaxOrder, &pool), nullptr);
  EXPECT_EQ(core::task_pool_for(core::kCallerThreadMaxOrder + 1, &pool),
            &pool);
  const auto opens_off_caller = [](Index n) {
    PipelineFixture fx(4);
    OpenThreadCounter counter;
    fx.fs.set_tier_listener(&counter);
    core::InversionOptions opts;
    opts.nb = 128;
    const Matrix a = random_matrix(n, 7);
    const auto result = fx.run(a, opts);
    fx.fs.set_tier_listener(nullptr);
    EXPECT_LT(inversion_residual(a, result.inverse), 1e-8);
    EXPECT_GT(counter.on_caller.load(), 0);
    return counter.off_caller.load();
  };
  EXPECT_EQ(opens_off_caller(core::kCallerThreadMaxOrder), 0);
  EXPECT_GT(opens_off_caller(core::kCallerThreadMaxOrder + 1), 0);
}

TEST(EndToEnd, SmallMatrixSingleNode) {
  PipelineFixture fx(1);
  const Matrix a = random_matrix(16, /*seed=*/1);
  core::InversionOptions opts;
  opts.nb = 8;
  auto result = fx.run(a, opts);
  EXPECT_LT(inversion_residual(a, result.inverse), 1e-9);
}

TEST(EndToEnd, MatchesSerialReference) {
  PipelineFixture fx(4);
  const Matrix a = random_matrix(64, /*seed=*/7);
  core::InversionOptions opts;
  opts.nb = 16;
  auto result = fx.run(a, opts);
  const Matrix reference = invert_via_lu(a);
  EXPECT_LT(max_abs_diff(result.inverse, reference), 1e-8);
}

TEST(EndToEnd, PivotHostileMatrix) {
  PipelineFixture fx(4);
  const Matrix a = random_pivot_hostile(48, /*seed=*/3);
  core::InversionOptions opts;
  opts.nb = 12;
  auto result = fx.run(a, opts);
  EXPECT_LT(inversion_residual(a, result.inverse), 1e-6);
}

TEST(EndToEnd, JobCountMatchesPlan) {
  PipelineFixture fx(4);
  const Matrix a = random_matrix(64, /*seed=*/11);
  core::InversionOptions opts;
  opts.nb = 8;  // depth 3 -> 2^3 + 1 = 9 jobs
  auto result = fx.run(a, opts);
  EXPECT_EQ(result.plan.depth, 3);
  EXPECT_EQ(result.report.jobs, 9);
  EXPECT_LT(inversion_residual(a, result.inverse), 1e-8);
}

struct SweepParam {
  Index n;
  Index nb;
  int m0;
  bool separate_files;
  bool block_wrap;
  bool transposed_u;
};

class EndToEndSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EndToEndSweep, InvertsCorrectly) {
  const SweepParam p = GetParam();
  PipelineFixture fx(p.m0);
  const Matrix a = random_matrix(p.n, /*seed=*/p.n * 1000 + p.m0);
  core::InversionOptions opts;
  opts.nb = p.nb;
  opts.separate_intermediate_files = p.separate_files;
  opts.block_wrap = p.block_wrap;
  opts.transposed_u = p.transposed_u;
  auto result = fx.run(a, opts);
  // §7.2: every element of I - A·A⁻¹ below 1e-5 (we meet a tighter bound at
  // these orders).
  EXPECT_LT(inversion_residual(a, result.inverse), 1e-5);
  const Matrix reference = invert_via_lu(a);
  EXPECT_LT(max_abs_diff(result.inverse, reference), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EndToEndSweep,
    ::testing::Values(
        SweepParam{8, 8, 1, true, true, true},     // depth 0, single node
        SweepParam{9, 8, 2, true, true, true},     // odd order
        SweepParam{32, 8, 2, true, true, true},    // depth 2
        SweepParam{33, 8, 4, true, true, true},    // odd order, depth 3
        SweepParam{64, 8, 8, true, true, true},    // deeper than wide
        SweepParam{40, 16, 6, true, true, true},   // m0 not a power of two
        SweepParam{64, 16, 16, true, true, true},  // m0 > stripes per side
        SweepParam{50, 64, 4, true, true, true},   // n < nb: depth 0
        SweepParam{31, 7, 5, true, true, true},    // everything odd
        SweepParam{150, 40, 5, true, true, true})); // > one product block

INSTANTIATE_TEST_SUITE_P(
    Optimizations, EndToEndSweep,
    ::testing::Values(
        SweepParam{48, 12, 4, false, true, true},   // combine penalty path
        SweepParam{48, 12, 4, true, false, true},   // no block wrap
        SweepParam{48, 12, 4, true, true, false},   // untransposed U
        SweepParam{48, 12, 4, false, false, false},  // everything off
        SweepParam{150, 40, 6, true, false, true},   // row bands, n > 128
        SweepParam{150, 40, 5, true, false, true},   // u_workers ∤ m0
        SweepParam{31, 7, 7, true, false, true}      // ... and odd order
        ));

TEST(EndToEnd, OverlapFinalStageMatchesSequential) {
  // DAG mode splits the final job into {invert-l, invert-u} -> invert-mul.
  // Same arithmetic, same inverse; two extra jobs; and because L⁻¹ and U⁻¹
  // share the cluster concurrently, the makespan lands below the serial sum
  // of the job times.
  const Matrix a = random_matrix(64, /*seed=*/7);
  core::InversionOptions opts;
  opts.nb = 16;

  PipelineFixture seq_fx(4);
  auto seq = seq_fx.run(a, opts);

  PipelineFixture dag_fx(4);
  opts.overlap_final_stage = true;
  auto dag = dag_fx.run(a, opts);

  EXPECT_EQ(max_abs_diff(dag.inverse, seq.inverse), 0.0);  // same arithmetic
  EXPECT_EQ(dag.report.jobs, seq.report.jobs + 2);
  EXPECT_EQ(dag.det_log_abs, seq.det_log_abs);
  EXPECT_EQ(dag.det_sign, seq.det_sign);

  double serial_sum = dag.report.master_seconds;
  for (const mr::JobResult& job : dag.jobs) serial_sum += job.sim_seconds;
  EXPECT_LT(dag.report.sim_seconds, serial_sum);

  // The last three jobs are the diamond: invert-l and invert-u overlap.
  ASSERT_GE(dag.jobs.size(), 3u);
  const mr::JobResult& jl = dag.jobs[dag.jobs.size() - 3];
  const mr::JobResult& ju = dag.jobs[dag.jobs.size() - 2];
  const mr::JobResult& jm = dag.jobs.back();
  EXPECT_EQ(jl.name, "invert-l");
  EXPECT_EQ(ju.name, "invert-u");
  EXPECT_EQ(jm.name, "invert-mul");
  EXPECT_EQ(jl.start_seconds, ju.start_seconds);
  EXPECT_GE(jm.start_seconds,
            std::max(jl.start_seconds + jl.sim_seconds,
                     ju.start_seconds + ju.sim_seconds) -
                1e-12);

  // Stage accounting still covers the whole run.
  EXPECT_EQ(dag.inversion_stage.jobs, 3);
  EXPECT_EQ(dag.lu_stage.jobs + dag.inversion_stage.jobs, dag.report.jobs);
  EXPECT_NEAR(dag.lu_stage.sim_seconds + dag.inversion_stage.sim_seconds,
              dag.report.sim_seconds, 1e-9);
}

TEST(EndToEnd, SingularMatrixThrows) {
  PipelineFixture fx(2);
  Matrix a = random_matrix(16, /*seed=*/5);
  // An exactly-zero row stays exactly zero through elimination, so the
  // leaf LU hits a hard zero pivot.
  for (Index j = 0; j < 16; ++j) a(0, j) = 0.0;
  core::InversionOptions opts;
  opts.nb = 8;
  EXPECT_THROW(fx.run(a, opts), NumericalError);
}

TEST(EndToEnd, FaultInjectionRecovers) {
  MetricsRegistry metrics;
  Cluster cluster(4, CostModel::ec2_medium());
  dfs::Dfs fs(4, dfs::DfsConfig{}, &metrics);
  ThreadPool pool(4);
  FailureInjector failures;
  failures.add_rule(FailureRule{"invert", /*task=*/1, /*attempt=*/0, true});

  core::MapReduceInverter inverter(&cluster, &fs, &pool, &failures, &metrics);
  const Matrix a = random_matrix(32, /*seed=*/9);
  core::InversionOptions opts;
  opts.nb = 16;
  auto result = inverter.invert(a, opts);

  EXPECT_EQ(result.report.failures_recovered, 1);
  EXPECT_EQ(failures.injected_count(), 1u);
  EXPECT_LT(inversion_residual(a, result.inverse), 1e-8);

  // The same run without the failure must be strictly faster in simulated
  // time (§7.4: 5 h clean vs 8 h with one failed mapper).
  PipelineFixture clean(4);
  auto clean_result = clean.run(a, opts);
  EXPECT_GT(result.report.sim_seconds, clean_result.report.sim_seconds);
}

}  // namespace
}  // namespace mri

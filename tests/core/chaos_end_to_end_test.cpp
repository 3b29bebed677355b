// End-to-end chaos acceptance (§7.4): a deterministic run with one node
// killed mid-inversion completes with a correct inverse and non-zero
// recovery accounting, two same-seed runs are bit-identical, and losing
// every replica of a block fails fast with UnrecoverableBlock. Running the
// tasks on the calling thread instead of the pool changes none of it.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/inverter.hpp"
#include "core/plan.hpp"
#include "dfs/dfs.hpp"
#include "dfs/path.hpp"
#include "mapreduce/job_graph.hpp"
#include "mapreduce/runtime.hpp"
#include "mapreduce/trace_export.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "sim/chaos.hpp"

namespace mri::core {
namespace {

constexpr Index kOrder = 64;
constexpr Index kNb = 16;  // depth-2 plan on 4 nodes: partition + 3 LU + final
constexpr int kNodes = 4;

CostModel model() { return CostModel::ec2_medium().scaled_down(40.0); }

struct E2eRun {
  bool completed = false;
  std::string error;
  double residual = 0.0;
  double sim_seconds = 0.0;
  RunReport report;
  std::string report_json;
  std::vector<mr::JobResult> jobs;
};

E2eRun run_once(const std::vector<ChaosEvent>& events, int replication = 3) {
  MetricsRegistry metrics;
  Cluster cluster(kNodes, model());
  dfs::DfsConfig cfg;
  cfg.replication = replication;
  dfs::Dfs fs(kNodes, cfg, &metrics);
  ThreadPool pool(4);
  ChaosEngine chaos;
  for (const ChaosEvent& e : events) chaos.add_event(e);
  fs.bind_chaos(&chaos, model().network_bandwidth);

  MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics, &chaos);
  InversionOptions options;
  options.nb = kNb;
  const Matrix a = random_matrix(kOrder, 11);

  E2eRun run;
  try {
    MapReduceInverter::Result result = inverter.invert(a, options);
    run.completed = true;
    run.residual = inversion_residual(a, result.inverse);
    run.sim_seconds = result.report.sim_seconds;
    run.jobs = result.jobs;
    run.report = mr::build_run_report(result.jobs, cluster, &metrics,
                                      result.master_spans, &chaos);
    run.report_json = run_report_json(run.report);
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  return run;
}

/// A kill time inside a reduce window ~halfway through the clean run: the
/// dead node then holds completed map outputs of the job, forcing a
/// recompute wave (not just a slot-pool shrink).
double pick_kill_time(const E2eRun& clean) {
  const double target = 0.5 * clean.sim_seconds;
  double best = -1.0, best_distance = 0.0;
  for (const mr::JobResult& job : clean.jobs) {
    if (job.reduce_phase_seconds <= 0.0) continue;
    const double at =
        job.reduce_phase_start() + 0.25 * job.reduce_phase_seconds;
    const double distance = std::abs(at - target);
    if (best < 0.0 || distance < best_distance) {
      best = at;
      best_distance = distance;
    }
  }
  EXPECT_GE(best, 0.0) << "no job with a reduce phase in the clean run";
  return best;
}

TEST(ChaosEndToEnd, SingleNodeKillRecoversWithCorrectInverse) {
  const E2eRun clean = run_once({});
  ASSERT_TRUE(clean.completed) << clean.error;
  ASSERT_LT(clean.residual, 1e-10);

  const double kill_at = pick_kill_time(clean);
  const E2eRun killed =
      run_once({{ChaosEventKind::kKillNode, kill_at, kNodes - 1, 1.0}});
  ASSERT_TRUE(killed.completed)
      << "run did not survive the node kill: " << killed.error;
  EXPECT_LT(killed.residual, 1e-10) << "recovered inverse lost accuracy";
  EXPECT_GT(killed.sim_seconds, clean.sim_seconds)
      << "recovery must cost simulated time";

  const RecoveryReport& recovery = killed.report.recovery;
  EXPECT_EQ(recovery.nodes_killed, 1);
  EXPECT_GT(recovery.tasks_recomputed, 0)
      << "the dead node's completed map outputs were never re-executed";
  EXPECT_GT(recovery.re_replicated_bytes, 0u)
      << "the namenode never re-replicated the dead node's blocks";
  EXPECT_GT(recovery.recovery_seconds, 0.0);
  EXPECT_EQ(recovery.blocks_lost, 0);
  ASSERT_EQ(killed.report.chaos_events.size(), 1u);
  EXPECT_DOUBLE_EQ(killed.report.chaos_events[0].at, kill_at);

  // The clean report must carry an all-zero recovery section (stable schema).
  EXPECT_EQ(clean.report.recovery.nodes_killed, 0);
  EXPECT_EQ(clean.report.recovery.tasks_recomputed, 0);
  EXPECT_TRUE(clean.report.chaos_events.empty());
}

TEST(ChaosEndToEnd, SameSeedKillRunsAreBitIdentical) {
  const E2eRun clean = run_once({});
  ASSERT_TRUE(clean.completed) << clean.error;
  const double kill_at = pick_kill_time(clean);
  const std::vector<ChaosEvent> events = {
      {ChaosEventKind::kKillNode, kill_at, 2, 1.0}};
  const E2eRun a = run_once(events);
  const E2eRun b = run_once(events);
  ASSERT_TRUE(a.completed) << a.error;
  ASSERT_TRUE(b.completed) << b.error;
  EXPECT_EQ(a.report_json, b.report_json)
      << "same schedule, same seed, different report";
}

TEST(ChaosEndToEnd, LosingEveryReplicaFailsFast) {
  const E2eRun clean = run_once({});
  ASSERT_TRUE(clean.completed) << clean.error;
  const double kill_at = pick_kill_time(clean);
  const E2eRun lost = run_once(
      {{ChaosEventKind::kKillNode, kill_at, kNodes - 1, 1.0}},
      /*replication=*/1);
  EXPECT_FALSE(lost.completed)
      << "unreplicated blocks died with the node; the run cannot succeed";
  EXPECT_NE(lost.error.find("nrecoverable"), std::string::npos)
      << "failure must surface UnrecoverableBlock, got: " << lost.error;
}

// A control file (§5.1) that rots on an unverified DFS: the one-byte text
// "3" is served as ";" (0x33 ^ 0x08) and "0" as "8". The mapper that reads
// it must fail with a DfsError naming the file and its bytes, not escape as
// std::invalid_argument (';') or silently run band 8 of 4 ('0').
TEST(ChaosEndToEnd, RottedControlFileFailsItsMapperByName) {
  for (const auto& [worker, served] :
       {std::pair<int, const char*>{3, ";"}, std::pair<int, const char*>{0, "8"}}) {
    Cluster cluster(kNodes, model());
    dfs::Dfs fs(kNodes);  // verify_checksums off: rot is served silently
    ThreadPool pool(4);
    MapReduceInverter inverter(&cluster, &fs, &pool);
    InversionOptions options;
    options.nb = kNb;
    // Written before anything else, so it is its node's only copy and the
    // corruption lands on it; the inverter keeps an existing control file.
    const std::string path =
        dfs::join(options.work_dir, "MapInput/A." + std::to_string(worker));
    fs.write_text(path, std::to_string(worker));
    fs.corrupt_block(fs.file_blocks(path).front().replicas.front(), 0.0);
    ASSERT_EQ(fs.read_text(path), served);

    const Matrix a = random_matrix(kOrder, 11);
    try {
      inverter.invert(a, options);
      ADD_FAILURE() << "the run read a rotted control file and completed";
    } catch (const JobError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("control file " + path + " holds \"" + served +
                          "\" but its mapper is worker " +
                          std::to_string(worker)),
                std::string::npos)
          << what;
    }
  }
}

TEST(ControlWorkerId, ParsesTheWholeTextAndMatchesTheTask) {
  EXPECT_EQ(control_worker_id("12", 12, "/w/A.12"), 12);
  EXPECT_EQ(control_worker_id("0", 0, "/w/A.0"), 0);
  for (const char* bad : {"", ";", "8", "12 ", "+1", "1x", "-0"}) {
    EXPECT_THROW(control_worker_id(bad, 1, "/w/A.1"), DfsError) << bad;
  }
  try {
    control_worker_id(std::string("3\x01", 2), 3, "/w/A.3");
    ADD_FAILURE() << "a stray byte was accepted";
  } catch (const DfsError& e) {
    EXPECT_NE(std::string(e.what()).find("/w/A.3 holds \"3\\x01\""),
              std::string::npos)
        << e.what();
  }
}

// ---- pool vs calling thread -------------------------------------------------

struct RunnerOutcome {
  std::string error;
  std::vector<mr::JobResult> jobs;
  std::string report_json;
  std::string trace_json;
  std::vector<double> inverse;
  std::size_t file_count = 0;
  IoStats io;
};

/// Inverts an order-`order` matrix through a runner built here, with the
/// 4-thread pool or (`on_caller`) none, so the size rule does not choose.
RunnerOutcome run_on(bool on_caller, Index order,
                     const std::vector<ChaosEvent>& events,
                     int replication = 3) {
  MetricsRegistry metrics;
  Cluster cluster(kNodes, model());
  dfs::DfsConfig cfg;
  cfg.replication = replication;
  dfs::Dfs fs(kNodes, cfg, &metrics);
  ThreadPool pool(4);
  ChaosEngine chaos;
  for (const ChaosEvent& e : events) chaos.add_event(e);
  fs.bind_chaos(&chaos, model().network_bandwidth);
  MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics, &chaos);
  mr::JobRunner runner(&cluster, &fs, on_caller ? nullptr : &pool, nullptr,
                       &metrics, &chaos);
  InversionOptions options;
  options.nb = kNb;
  const Matrix a = random_matrix(order, 5);

  RunnerOutcome out;
  {
    mr::JobGraph graph(&runner);
    try {
      MapReduceInverter::Result result = inverter.invert_on(graph, a, options);
      out.jobs = result.jobs;
      const RunReport report =
          mr::build_run_report(result.jobs, cluster, &metrics,
                               result.master_spans, &chaos, nullptr, &fs);
      out.report_json = run_report_json(report);
      out.trace_json = chrome_trace_json(report);
      out.inverse.assign(result.inverse.data().begin(),
                         result.inverse.data().end());
    } catch (const std::exception& e) {
      out.error = e.what();
    }
  }
  out.file_count = fs.file_count();
  out.io = metrics.io_totals();
  return out;
}

TEST(CallerThread, SameReportTraceAndInverseBytesAsThePool) {
  const RunnerOutcome pooled = run_on(false, 128, {});
  const RunnerOutcome caller = run_on(true, 128, {});
  ASSERT_TRUE(pooled.error.empty()) << pooled.error;
  ASSERT_TRUE(caller.error.empty()) << caller.error;
  EXPECT_EQ(pooled.report_json, caller.report_json);
  EXPECT_EQ(pooled.trace_json, caller.trace_json);
  ASSERT_EQ(pooled.inverse.size(), caller.inverse.size());
  EXPECT_EQ(std::memcmp(pooled.inverse.data(), caller.inverse.data(),
                        pooled.inverse.size() * sizeof(double)),
            0);
  EXPECT_EQ(pooled.file_count, caller.file_count);
  EXPECT_EQ(pooled.io, caller.io);
}

TEST(CallerThread, FailingRunLeavesTheSameErrorFilesAndTotalsAsThePool) {
  // Unreplicated blocks die with a node killed as the partition job ends,
  // before any LU job runs.
  const RunnerOutcome clean = run_on(true, 128, {}, /*replication=*/1);
  ASSERT_TRUE(clean.error.empty()) << clean.error;
  const mr::JobResult& partition = clean.jobs.front();
  const std::vector<ChaosEvent> kill = {
      {ChaosEventKind::kKillNode,
       partition.start_seconds + partition.sim_seconds, kNodes - 1, 1.0}};
  const RunnerOutcome pooled = run_on(false, 128, kill, 1);
  const RunnerOutcome caller = run_on(true, 128, kill, 1);
  EXPECT_NE(pooled.error.find("nrecoverable"), std::string::npos)
      << pooled.error;
  EXPECT_EQ(pooled.error, caller.error);
  EXPECT_EQ(pooled.file_count, caller.file_count);
  EXPECT_EQ(pooled.io, caller.io);
}

}  // namespace
}  // namespace mri::core

// The MapReduce runtime exercised as a general-purpose system: a word-count
// style job, shuffle semantics, scheduling/failure simulation, job chains.
#include <gtest/gtest.h>

#include <sstream>

#include "mapreduce/job_graph.hpp"
#include "mapreduce/runtime.hpp"
#include "mapreduce/scheduler.hpp"
#include "mapreduce/shuffle.hpp"
#include "mapreduce/trace_export.hpp"

namespace mri::mr {
namespace {

// ---- shuffle ----------------------------------------------------------------

TEST(Shuffle, PartitionsByKeyMod) {
  std::vector<std::vector<KeyValue>> outputs(2);
  outputs[0] = {{0, "a"}, {1, "b"}, {2, "c"}};
  outputs[1] = {{1, "d"}};
  const ShuffleResult r = shuffle(std::move(outputs), 2, nullptr);
  ASSERT_EQ(r.partitions.size(), 2u);
  EXPECT_EQ(r.partitions[0].at(0), (std::vector<std::string>{"a"}));
  EXPECT_EQ(r.partitions[0].at(2), (std::vector<std::string>{"c"}));
  EXPECT_EQ(r.partitions[1].at(1), (std::vector<std::string>{"b", "d"}));
}

TEST(Shuffle, NegativeKeysLandInRange) {
  std::vector<std::vector<KeyValue>> outputs(1);
  outputs[0] = {{-3, "x"}};
  const ShuffleResult r = shuffle(std::move(outputs), 2, nullptr);
  EXPECT_EQ(r.partitions[1].at(-3).size(), 1u);
}

TEST(Shuffle, CustomPartitioner) {
  std::vector<std::vector<KeyValue>> outputs(1);
  outputs[0] = {{100, "x"}, {200, "y"}};
  const ShuffleResult r = shuffle(
      std::move(outputs), 3, [](std::int64_t, int) { return 2; });
  EXPECT_TRUE(r.partitions[0].empty());
  EXPECT_EQ(r.partitions[2].size(), 2u);
}

TEST(Shuffle, CountsBytes) {
  std::vector<std::vector<KeyValue>> outputs(1);
  outputs[0] = {{1, "abcd"}};
  const ShuffleResult r = shuffle(std::move(outputs), 1, nullptr);
  EXPECT_EQ(r.total_bytes, 8u + 4u);
}

TEST(Shuffle, BadPartitionerCaught) {
  std::vector<std::vector<KeyValue>> outputs(1);
  outputs[0] = {{1, "x"}};
  EXPECT_THROW(
      shuffle(std::move(outputs), 2, [](std::int64_t, int) { return 7; }),
      Error);
}

TEST(Shuffle, WithoutClusterSizeEverythingIsRemote) {
  std::vector<std::vector<KeyValue>> outputs(1);
  outputs[0] = {{0, "ab"}, {1, "cd"}};
  const ShuffleResult r = shuffle(std::move(outputs), 2, nullptr);
  EXPECT_EQ(r.local_bytes, 0u);
  EXPECT_EQ(r.remote_bytes, r.total_bytes);
}

TEST(Shuffle, SplitsLocalAndRemoteByNode) {
  // 2 map tasks on a 2-node cluster: map t runs on node t, reduce partition
  // p lands on node p. Keys equal to the mapper's node stay local.
  std::vector<std::vector<KeyValue>> outputs(2);
  outputs[0] = {{0, "aa"}, {1, "bb"}};  // key 0 local, key 1 remote
  outputs[1] = {{0, "cc"}, {1, "dd"}};  // key 0 remote, key 1 local
  const ShuffleResult r =
      shuffle(std::move(outputs), 2, nullptr, /*cluster_size=*/2);
  const std::uint64_t pair_bytes = 8 + 2;
  EXPECT_EQ(r.total_bytes, 4 * pair_bytes);
  EXPECT_EQ(r.local_bytes, 2 * pair_bytes);
  EXPECT_EQ(r.remote_bytes, 2 * pair_bytes);
  EXPECT_EQ(r.local_bytes + r.remote_bytes, r.total_bytes);
}

TEST(Shuffle, MorePartitionsThanNodesWrapAround) {
  // Partition 2 on a 2-node cluster lands on node 0 again.
  std::vector<std::vector<KeyValue>> outputs(1);
  outputs[0] = {{2, "xy"}};  // map task 0 = node 0; partition 2 -> node 0
  const ShuffleResult r =
      shuffle(std::move(outputs), 3, nullptr, /*cluster_size=*/2);
  EXPECT_EQ(r.local_bytes, r.total_bytes);
  EXPECT_EQ(r.remote_bytes, 0u);
}

// ---- scheduler -----------------------------------------------------------------

Attempt ok_attempt(std::uint64_t flops) {
  Attempt a;
  a.io.mults = flops;
  return a;
}

TEST(Scheduler, SingleWave) {
  CostModel m;
  m.flops_per_second = 1e9;
  m.task_overhead_seconds = 0.0;
  m.failure_detection_seconds = 0.0;
  m.node_speed_variance = 0.0;
  Cluster cluster(4, m);
  // 4 equal tasks on 4 nodes: duration = one task.
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(2'000'000'000)});
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  EXPECT_NEAR(s.duration, 2.0, 1e-9);
  EXPECT_EQ(s.attempts_run, 4);
  EXPECT_EQ(s.nodes_lost, 0);
}

TEST(Scheduler, TwoWaves) {
  CostModel m;
  m.flops_per_second = 1e9;
  m.task_overhead_seconds = 0.0;
  m.failure_detection_seconds = 0.0;
  m.node_speed_variance = 0.0;
  Cluster cluster(2, m);
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(1'000'000'000)});
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  EXPECT_NEAR(s.duration, 2.0, 1e-9);  // 4 tasks / 2 slots = 2 waves
}

TEST(Scheduler, FailureSerializesRetry) {
  // The §7.4 scenario: all slots busy; one task fails halfway and loses its
  // node; the retry starts only when another task finishes.
  CostModel m;
  m.flops_per_second = 1e9;
  m.task_overhead_seconds = 0.0;
  m.failure_detection_seconds = 0.0;
  m.node_speed_variance = 0.0;
  Cluster cluster(2, m);
  std::vector<std::vector<Attempt>> tasks(2);
  tasks[0] = {ok_attempt(1'000'000'000)};  // 1 s, succeeds
  Attempt ghost = ok_attempt(500'000'000);  // dies at 0.5 s
  ghost.failed = true;
  tasks[1] = {ghost, ok_attempt(1'000'000'000)};
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  // Node lost at 0.5 s; retry waits for the other node (free at 1.0 s) and
  // runs 1 s: total 2.0 s instead of 1.0 s.
  EXPECT_NEAR(s.duration, 2.0, 1e-9);
  EXPECT_EQ(s.nodes_lost, 1);
  EXPECT_EQ(s.attempts_run, 3);
}

TEST(Scheduler, SlowNodeStretchesPhase) {
  CostModel m;
  m.flops_per_second = 1e9;
  m.task_overhead_seconds = 0.0;
  m.failure_detection_seconds = 0.0;
  m.node_speed_variance = 0.4;
  Cluster cluster(4, m, /*seed=*/123);
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(1'000'000'000)});
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  double slowest = 1.0;
  for (int i = 0; i < 4; ++i)
    slowest = std::max(slowest, 1.0 / cluster.speed_factor(i));
  EXPECT_NEAR(s.duration, slowest, 1e-9);
}

TEST(Scheduler, EmptyPhase) {
  Cluster cluster(2, CostModel{});
  EXPECT_EQ(schedule_phase(cluster, {}).duration, 0.0);
}

CostModel spec_model(bool speculation, double variance) {
  CostModel m;
  m.flops_per_second = 1e9;
  m.task_overhead_seconds = 0.0;
  m.failure_detection_seconds = 0.0;
  m.node_speed_variance = variance;
  m.speculative_execution = speculation;
  m.speculative_threshold = 1.2;
  return m;
}

TEST(Scheduler, SpeculationCannotRescueBigWork) {
  // A task with 10x the *work* (not a slow node) gains nothing from a
  // backup: the backup needs the same 10 s.
  Cluster cluster(4, spec_model(true, 0.0));
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(1'000'000'000)});
  tasks[3] = {ok_attempt(10'000'000'000)};
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  EXPECT_NEAR(s.duration, 10.0, 1e-9);
}

TEST(Scheduler, SpeculationRescuesSlowNodeStraggler) {
  // Same work everywhere, but one node is much slower; the backup on a
  // fast idle node beats the straggler.
  // Seed 13 gives speeds {1.00, 0.69, 1.34, 1.56}: the task on node 1 runs
  // 2.9 s vs a 2.0 s median; the idle 1.56x node backs it up from 1.49 s
  // and wins at ~2.77 s.
  Cluster with_spec(4, spec_model(true, 0.6), /*seed=*/13);
  Cluster without_spec(4, spec_model(false, 0.6), /*seed=*/13);
  // Fewer tasks than slots so idle capacity exists for backups.
  std::vector<std::vector<Attempt>> tasks(3, {ok_attempt(2'000'000'000)});
  const PhaseSchedule a = schedule_phase(with_spec, tasks);
  const PhaseSchedule b = schedule_phase(without_spec, tasks);
  EXPECT_LE(a.duration, b.duration);
  // With a 0.6 spread the slowest node is ~2.5x nominal; a backup should
  // actually have been launched and won.
  EXPECT_GE(a.backups_run, 1);
  EXPECT_LT(a.duration, b.duration);
}

TEST(Scheduler, SpeculationOffByDefault) {
  CostModel m;
  Cluster cluster(4, m);
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(1'000'000'000)});
  EXPECT_EQ(schedule_phase(cluster, tasks).backups_run, 0);
}

// ---- runtime: a classic word-count job ------------------------------------------

class WordCountMapper : public Mapper {
 public:
  void map(std::int64_t, const std::string& value, TaskContext& ctx) override {
    std::istringstream in(value);
    std::string word;
    while (in >> word) {
      // Key by word length (integer keys); value is the word itself.
      ctx.emit(static_cast<std::int64_t>(word.size()), word);
    }
  }
};

class CountReducer : public Reducer {
 public:
  void reduce(std::int64_t key, const std::vector<std::string>& values,
              TaskContext& ctx) override {
    ctx.fs().write_text("/out/len." + std::to_string(key),
                        std::to_string(values.size()), &ctx.io());
  }
};

struct RuntimeFixture {
  RuntimeFixture(int nodes)
      : cluster(nodes, CostModel::ec2_medium()),
        fs(nodes, dfs::DfsConfig{}, &metrics),
        pool(4),
        runner(&cluster, &fs, &pool, &failures, &metrics) {}

  MetricsRegistry metrics;
  FailureInjector failures;
  Cluster cluster;
  dfs::Dfs fs;
  ThreadPool pool;
  JobRunner runner;
};

JobSpec word_count_spec(std::vector<std::string> inputs) {
  JobSpec spec;
  spec.name = "wordcount";
  spec.input_files = std::move(inputs);
  spec.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  spec.num_reduce_tasks = 3;
  return spec;
}

TEST(Runtime, WordCountEndToEnd) {
  RuntimeFixture fx(4);
  fx.fs.write_text("/in/0", "a bb ccc a bb");
  fx.fs.write_text("/in/1", "dddd a ccc");
  const JobResult r = fx.runner.run(word_count_spec({"/in/0", "/in/1"}));

  EXPECT_EQ(fx.fs.read_text("/out/len.1"), "3");  // a a a
  EXPECT_EQ(fx.fs.read_text("/out/len.2"), "2");  // bb bb
  EXPECT_EQ(fx.fs.read_text("/out/len.3"), "2");  // ccc ccc
  EXPECT_EQ(fx.fs.read_text("/out/len.4"), "1");  // dddd
  EXPECT_EQ(r.map_tasks, 2);
  EXPECT_EQ(r.reduce_tasks, 3);
  EXPECT_GT(r.sim_seconds,
            fx.cluster.cost_model().job_launch_seconds);  // launch charged
  EXPECT_GT(r.shuffle_bytes, 0u);
  EXPECT_EQ(fx.metrics.value("jobs"), 1u);
  EXPECT_EQ(fx.metrics.value("map_tasks"), 2u);
}

TEST(Runtime, MapOnlyJob) {
  RuntimeFixture fx(2);
  fx.fs.write_text("/in/0", "payload");
  JobSpec spec;
  spec.name = "map-only";
  spec.input_files = {"/in/0"};
  spec.mapper_factory = [] {
    class M : public Mapper {
      void map(std::int64_t, const std::string& v, TaskContext& ctx) override {
        ctx.fs().write_text("/out/copy", v, &ctx.io());
      }
    };
    return std::make_unique<M>();
  };
  const JobResult r = fx.runner.run(spec);
  EXPECT_EQ(fx.fs.read_text("/out/copy"), "payload");
  EXPECT_EQ(r.reduce_tasks, 0);
  EXPECT_EQ(r.reduce_phase_seconds, 0.0);
}

TEST(Runtime, TaskExceptionBecomesJobError) {
  RuntimeFixture fx(2);
  fx.fs.write_text("/in/0", "x");
  JobSpec spec;
  spec.name = "broken";
  spec.input_files = {"/in/0"};
  spec.mapper_factory = [] {
    class M : public Mapper {
      void map(std::int64_t, const std::string&, TaskContext&) override {
        throw NumericalError("singular");
      }
    };
    return std::make_unique<M>();
  };
  EXPECT_THROW(fx.runner.run(spec), JobError);
}

TEST(Runtime, InjectedFailureIsRecoveredAndCharged) {
  RuntimeFixture fx(4);
  for (int i = 0; i < 4; ++i)
    { const std::string n = std::to_string(i); fx.fs.write_text("/in/" + n, "w" + n); }
  fx.failures.add_rule(FailureRule{"wordcount", 2, 0, true});

  const JobResult with_failure = fx.runner.run(word_count_spec(
      {"/in/0", "/in/1", "/in/2", "/in/3"}));
  EXPECT_EQ(with_failure.failures_recovered, 1);

  RuntimeFixture clean(4);
  for (int i = 0; i < 4; ++i)
    { const std::string n = std::to_string(i); clean.fs.write_text("/in/" + n, "w" + n); }
  const JobResult no_failure = clean.runner.run(word_count_spec(
      {"/in/0", "/in/1", "/in/2", "/in/3"}));
  EXPECT_EQ(no_failure.failures_recovered, 0);
  EXPECT_GT(with_failure.sim_seconds, no_failure.sim_seconds);
}

TEST(Runtime, ShuffleLocalBytesExcludedFromNetworkTraffic) {
  RuntimeFixture fx(4);
  fx.fs.write_text("/in/0", "a bb ccc a bb");
  fx.fs.write_text("/in/1", "dddd a ccc");
  const JobResult r = fx.runner.run(word_count_spec({"/in/0", "/in/1"}));
  EXPECT_EQ(r.shuffle_local_bytes + r.shuffle_remote_bytes, r.shuffle_bytes);
  // Both local and remote pairs exist in this job (keys 1..4 over 3
  // partitions on 4 nodes), so the old all-remote accounting would differ.
  EXPECT_GT(r.shuffle_local_bytes, 0u);
  EXPECT_GT(r.shuffle_remote_bytes, 0u);
  EXPECT_EQ(fx.metrics.value("shuffle_local_bytes"), r.shuffle_local_bytes);
  EXPECT_EQ(fx.metrics.value("shuffle_remote_bytes"), r.shuffle_remote_bytes);
}

// A mapper with a large, known flop footprint: speculation tests compare
// exact I/O totals with and without backups.
class FlopsMapper : public Mapper {
 public:
  void map(std::int64_t, const std::string&, TaskContext& ctx) override {
    IoStats flops;
    flops.mults = 2'000'000'000;
    ctx.add_flops(flops);
  }
};

JobSpec flops_spec(std::vector<std::string> inputs) {
  JobSpec spec;
  spec.name = "flops";
  spec.input_files = std::move(inputs);
  spec.mapper_factory = [] { return std::make_unique<FlopsMapper>(); };
  return spec;
}

TEST(Runtime, SpeculativeBackupsAreChargedToJobIo) {
  // Seed 13 + 0.6 variance gives node speeds {1.00, 0.69, 1.34, 1.56}: the
  // map task on node 1 straggles past 1.2x median and the idle fast node
  // launches a backup. That backup's re-done reads and flops must appear in
  // JobResult::io, else Table 1/2 accounting understates work.
  CostModel m;
  m.flops_per_second = 1e9;
  m.task_overhead_seconds = 0.0;
  m.failure_detection_seconds = 0.0;
  m.node_speed_variance = 0.6;
  m.speculative_execution = true;
  m.speculative_threshold = 1.2;

  const auto run_once = [](CostModel model, bool speculation) {
    model.speculative_execution = speculation;
    MetricsRegistry metrics;
    Cluster cluster(4, model, /*seed=*/13);
    dfs::Dfs fs(4, dfs::DfsConfig{}, &metrics);
    ThreadPool pool(4);
    JobRunner runner(&cluster, &fs, &pool, nullptr, &metrics);
    for (int i = 0; i < 3; ++i)
      fs.write_text("/in/" + std::to_string(i), "x");
    return runner.run(flops_spec({"/in/0", "/in/1", "/in/2"}));
  };

  const JobResult with = run_once(m, true);
  const JobResult without = run_once(m, false);
  ASSERT_GE(with.backups_run, 1);
  EXPECT_EQ(without.backups_run, 0);
  // Exactly the backups' footprint more: re-read input, re-done flops.
  EXPECT_EQ(with.io.mults,
            without.io.mults +
                static_cast<std::uint64_t>(with.backups_run) * 2'000'000'000u);
  EXPECT_GT(with.io.bytes_read, without.io.bytes_read);
  EXPECT_EQ(with.io.bytes_written, without.io.bytes_written);  // no commit
  EXPECT_EQ(with.speculation_io.mults,
            static_cast<std::uint64_t>(with.backups_run) * 2'000'000'000u);
  // The backup also shows up in the trace and wins over the straggler.
  EXPECT_LT(with.map_phase_seconds, without.map_phase_seconds);
  bool saw_backup = false;
  for (const TaskTraceEvent& e : with.map_trace) saw_backup |= e.backup;
  EXPECT_TRUE(saw_backup);
}

TEST(Runtime, TracesCoverEveryAttempt) {
  RuntimeFixture fx(4);
  for (int i = 0; i < 4; ++i)
    { const std::string n = std::to_string(i); fx.fs.write_text("/in/" + n, "w" + n); }
  fx.failures.add_rule(FailureRule{"wordcount", 2, 0, true});
  const JobResult r = fx.runner.run(
      word_count_spec({"/in/0", "/in/1", "/in/2", "/in/3"}));
  // 4 maps + 1 retry; 3 reduces.
  EXPECT_EQ(r.map_trace.size(), 5u);
  EXPECT_EQ(r.reduce_trace.size(), 3u);
  int failed_events = 0;
  for (const TaskTraceEvent& e : r.map_trace) failed_events += e.failed;
  EXPECT_EQ(failed_events, 1);
}

TEST(Runtime, MissingInputIsJobError) {
  RuntimeFixture fx(2);
  JobSpec spec = word_count_spec({"/does/not/exist"});
  EXPECT_THROW(fx.runner.run(spec), JobError);
}

TEST(Runtime, EmptyInputListRejected) {
  RuntimeFixture fx(2);
  JobSpec spec = word_count_spec({});
  EXPECT_THROW(fx.runner.run(spec), InvalidArgument);
}

// ---- job chains -------------------------------------------------------------

TEST(JobGraph, AccumulatesAcrossJobs) {
  RuntimeFixture fx(2);
  fx.fs.write_text("/in/0", "one two");
  JobGraph pipeline(&fx.runner);
  pipeline.wait(pipeline.submit(word_count_spec({"/in/0"})));
  fx.fs.write_text("/in/1", "three");
  JobSpec second = word_count_spec({"/in/1"});
  second.name = "wordcount2";
  // The /out files from job 1 collide; write elsewhere.
  second.reducer_factory = [] {
    class R : public Reducer {
      void reduce(std::int64_t key, const std::vector<std::string>& values,
                  TaskContext& ctx) override {
        ctx.fs().write_text("/out2/len." + std::to_string(key),
                            std::to_string(values.size()), &ctx.io());
      }
    };
    return std::make_unique<R>();
  };
  pipeline.wait(pipeline.submit(second));

  IoStats master;
  master.mults = 1'000'000;
  pipeline.add_master_work(master);

  EXPECT_EQ(pipeline.job_count(), 2);
  EXPECT_GT(pipeline.master_seconds(), 0.0);
  EXPECT_NEAR(pipeline.total_sim_seconds(),
              pipeline.jobs()[0].sim_seconds + pipeline.jobs()[1].sim_seconds +
                  pipeline.master_seconds(),
              1e-12);
  // Jobs are placed on the pipeline's timeline back to back.
  EXPECT_EQ(pipeline.jobs()[0].start_seconds, 0.0);
  EXPECT_NEAR(pipeline.jobs()[1].start_seconds,
              pipeline.jobs()[0].sim_seconds, 1e-12);
}

// ---- trace export -----------------------------------------------------------

TEST(TraceExport, RunReportFromGraphJobs) {
  RuntimeFixture fx(4);
  for (int i = 0; i < 4; ++i)
    { const std::string n = std::to_string(i); fx.fs.write_text("/in/" + n, "w" + n); }
  fx.failures.add_rule(FailureRule{"wordcount", 1, 0, true});
  JobGraph pipeline(&fx.runner);
  pipeline.wait(
      pipeline.submit(word_count_spec({"/in/0", "/in/1", "/in/2", "/in/3"})));

  const RunReport report =
      build_run_report(pipeline.jobs(), fx.cluster, &fx.metrics);
  EXPECT_EQ(report.jobs, 1);
  EXPECT_EQ(report.failures_recovered, 1);
  EXPECT_EQ(report.total_slots, fx.cluster.total_slots());
  ASSERT_EQ(report.phases.size(), 2u);  // map + reduce
  EXPECT_EQ(report.phases[0].phase, "map");
  EXPECT_EQ(report.phases[1].phase, "reduce");
  // Map phase starts after the job launch overhead; reduce after the map.
  EXPECT_NEAR(report.phases[0].start,
              fx.cluster.cost_model().job_launch_seconds, 1e-9);
  EXPECT_NEAR(report.phases[1].start,
              report.phases[0].start + report.phases[0].duration, 1e-9);
  ASSERT_EQ(report.phase_reports.size(), 2u);
  EXPECT_EQ(report.phase_reports[0].failures, 1);
  ASSERT_EQ(report.failure_timeline.size(), 1u);
  EXPECT_GT(report.failure_timeline[0].retry_start,
            report.failure_timeline[0].failed_at - 1e-12);
  // DFS totals came through the metrics registry.
  EXPECT_GT(report.dfs_io.bytes_written, 0u);
  EXPECT_EQ(report.counters.at("jobs"), 1u);
  // Both export shapes serialize.
  EXPECT_FALSE(run_report_json(report).empty());
  EXPECT_FALSE(chrome_trace_json(report).empty());
}

}  // namespace
}  // namespace mri::mr

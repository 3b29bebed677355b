// The DAG job executor: submit/wait/run_all semantics, the shared slot
// pool, sequential-equals-chain equivalence, determinism under
// concurrency, and the default floor-mod partitioner.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/job_graph.hpp"
#include "mapreduce/runtime.hpp"
#include "mapreduce/shuffle.hpp"
#include "mapreduce/trace_export.hpp"
#include "sim/chaos.hpp"

namespace mri::mr {
namespace {

// ---- floor-mod partitioner --------------------------------------------------

TEST(FloorModPartition, PositiveKeys) {
  EXPECT_EQ(floor_mod_partition(0, 3), 0);
  EXPECT_EQ(floor_mod_partition(5, 3), 2);
  EXPECT_EQ(floor_mod_partition(6, 3), 0);
}

TEST(FloorModPartition, NegativeKeysLandInRange) {
  EXPECT_EQ(floor_mod_partition(-1, 3), 2);
  EXPECT_EQ(floor_mod_partition(-3, 3), 0);
  EXPECT_EQ(floor_mod_partition(-4, 3), 2);
}

TEST(FloorModPartition, Int64MinDoesNotOverflow) {
  // -2^63 ≡ 1 (mod 3); the naive abs()-based fold would be UB here.
  EXPECT_EQ(floor_mod_partition(INT64_MIN, 3), 1);
  EXPECT_EQ(floor_mod_partition(INT64_MIN, 1), 0);
  EXPECT_GE(floor_mod_partition(INT64_MIN, 7), 0);
  EXPECT_LT(floor_mod_partition(INT64_MIN, 7), 7);
}

TEST(FloorModPartition, RejectsNonPositivePartitionCount) {
  EXPECT_THROW(floor_mod_partition(1, 0), InvalidArgument);
  EXPECT_THROW(floor_mod_partition(1, -2), InvalidArgument);
}

// ---- fixtures ---------------------------------------------------------------

// Deterministic arithmetic: unit node speeds, no overheads, so task times
// and makespans are exact round numbers.
CostModel flops_model() {
  CostModel m;
  m.flops_per_second = 1e9;
  m.task_overhead_seconds = 0.0;
  m.failure_detection_seconds = 0.0;
  m.node_speed_variance = 0.0;
  m.job_launch_seconds = 0.0;
  return m;
}

struct GraphFixture {
  /// `on_caller`: the runner gets no pool, so tasks run on the thread that
  /// places the job.
  explicit GraphFixture(int nodes, CostModel model = flops_model(),
                        bool on_caller = false)
      : cluster(nodes, model),
        fs(nodes, dfs::DfsConfig{}, &metrics),
        pool(4),
        runner(&cluster, &fs, on_caller ? nullptr : &pool, nullptr,
               &metrics) {
    for (int i = 0; i < nodes; ++i)
      { const std::string n = std::to_string(i); fs.write_text("/in/" + n, "x" + n); }
  }

  std::vector<std::string> inputs(int count) const {
    std::vector<std::string> files;
    for (int i = 0; i < count; ++i)
      files.push_back("/in/" + std::to_string(i));
    return files;
  }

  MetricsRegistry metrics;
  Cluster cluster;
  dfs::Dfs fs;
  ThreadPool pool;
  JobRunner runner;
};

// A map-only job whose every task burns `flops` multiplications: 2e9 flops
// at 1e9 flops/s = 2 s per task.
JobSpec flops_job(std::string name, std::vector<std::string> inputs,
                  std::uint64_t flops = 2'000'000'000) {
  class FlopsMapper : public Mapper {
   public:
    explicit FlopsMapper(std::uint64_t f) : f_(f) {}
    void map(std::int64_t, const std::string&, TaskContext& ctx) override {
      IoStats io;
      io.mults = f_;
      ctx.add_flops(io);
    }

   private:
    std::uint64_t f_;
  };
  JobSpec spec;
  spec.name = std::move(name);
  spec.input_files = std::move(inputs);
  spec.mapper_factory = [flops] { return std::make_unique<FlopsMapper>(flops); };
  return spec;
}

// A full map+shuffle+reduce job: keys by input length, counts per key, so
// determinism checks cover the shuffle and reduce paths too.
JobSpec count_job(std::string name, std::vector<std::string> inputs,
                  std::string out_dir) {
  class LenMapper : public Mapper {
   public:
    void map(std::int64_t, const std::string& value,
             TaskContext& ctx) override {
      ctx.emit(static_cast<std::int64_t>(value.size()), value);
    }
  };
  class CountReducer : public Reducer {
   public:
    explicit CountReducer(std::string dir) : dir_(std::move(dir)) {}
    void reduce(std::int64_t key, const std::vector<std::string>& values,
                TaskContext& ctx) override {
      ctx.fs().write_text(dir_ + "/len." + std::to_string(key),
                          std::to_string(values.size()), &ctx.io());
    }

   private:
    std::string dir_;
  };
  JobSpec spec;
  spec.name = std::move(name);
  spec.input_files = std::move(inputs);
  spec.num_reduce_tasks = 2;
  spec.mapper_factory = [] { return std::make_unique<LenMapper>(); };
  spec.reducer_factory = [out_dir] {
    return std::make_unique<CountReducer>(out_dir);
  };
  return spec;
}

// A job whose map tasks (and `reduces` reduce tasks, fed one pair per map
// task) call `probe` from inside the task body. Each map task burns 2 s.
JobSpec probe_job(std::string name, std::vector<std::string> inputs,
                  std::function<void(TaskContext&)> probe, int reduces = 0) {
  class ProbeMapper : public Mapper {
   public:
    explicit ProbeMapper(std::function<void(TaskContext&)> p)
        : p_(std::move(p)) {}
    void map(std::int64_t key, const std::string&, TaskContext& ctx) override {
      p_(ctx);
      IoStats io;
      io.mults = 2'000'000'000;
      ctx.add_flops(io);
      ctx.emit(key, "");
    }

   private:
    std::function<void(TaskContext&)> p_;
  };
  class ProbeReducer : public Reducer {
   public:
    explicit ProbeReducer(std::function<void(TaskContext&)> p)
        : p_(std::move(p)) {}
    void reduce(std::int64_t, const std::vector<std::string>&,
                TaskContext& ctx) override {
      p_(ctx);
    }

   private:
    std::function<void(TaskContext&)> p_;
  };
  JobSpec spec;
  spec.name = std::move(name);
  spec.input_files = std::move(inputs);
  spec.mapper_factory = [probe] { return std::make_unique<ProbeMapper>(probe); };
  if (reduces > 0) {
    spec.num_reduce_tasks = reduces;
    spec.reducer_factory = [probe] {
      return std::make_unique<ProbeReducer>(probe);
    };
  }
  return spec;
}

// ---- sequential equivalence -------------------------------------------------

TEST(JobGraph, SequentialChainIsBitIdenticalToRun) {
  // The same three jobs (plus master work between them) run one at a time
  // without dependencies (wait(submit(spec))) and through an explicit
  // dependency chain must produce byte-identical accounting — makespan,
  // per-job starts, the run report.
  const auto drive_run = [](GraphFixture& fx) {
    JobGraph p(&fx.runner);
    p.wait(p.submit(count_job("count", fx.inputs(4), "/out1")));
    IoStats master;
    master.mults = 1'000'000'000;
    p.add_master_work(master);
    p.wait(p.submit(flops_job("flops-a", fx.inputs(2))));
    p.wait(p.submit(flops_job("flops-b", fx.inputs(3))));
    return p.jobs();
  };
  const auto drive_dag = [](GraphFixture& fx) {
    JobGraph p(&fx.runner);
    const JobHandle a = p.submit(count_job("count", fx.inputs(4), "/out1"));
    p.wait(a);
    IoStats master;
    master.mults = 1'000'000'000;
    p.add_master_work(master);
    const JobHandle b = p.submit(flops_job("flops-a", fx.inputs(2)), {a});
    p.wait(b);
    const JobHandle c = p.submit(flops_job("flops-b", fx.inputs(3)), {b});
    p.wait(c);
    return p.jobs();
  };

  GraphFixture fx1(4), fx2(4);
  const std::vector<JobResult> run_jobs = drive_run(fx1);
  const std::vector<JobResult> dag_jobs = drive_dag(fx2);

  ASSERT_EQ(run_jobs.size(), dag_jobs.size());
  for (std::size_t i = 0; i < run_jobs.size(); ++i) {
    EXPECT_EQ(run_jobs[i].start_seconds, dag_jobs[i].start_seconds);  // exact
    EXPECT_EQ(run_jobs[i].sim_seconds, dag_jobs[i].sim_seconds);      // exact
  }
  const std::string json1 = run_report_json(
      build_run_report(run_jobs, fx1.cluster, &fx1.metrics));
  const std::string json2 = run_report_json(
      build_run_report(dag_jobs, fx2.cluster, &fx2.metrics));
  EXPECT_EQ(json1, json2);
}

TEST(JobGraph, SequentialMakespanIsSumOfJobs) {
  GraphFixture fx(4);
  JobGraph p(&fx.runner);
  const JobHandle a = p.submit(flops_job("a", fx.inputs(4)));
  p.wait(a);
  const JobHandle b = p.submit(flops_job("b", fx.inputs(4)), {a});
  p.wait(b);
  EXPECT_EQ(p.total_sim_seconds(),
            p.jobs()[0].sim_seconds + p.jobs()[1].sim_seconds);
  EXPECT_EQ(p.jobs()[0].start_seconds, 0.0);
  EXPECT_EQ(p.jobs()[1].start_seconds, p.jobs()[0].sim_seconds);
}

TEST(JobGraph, StartSecondsAreMonotone) {
  GraphFixture fx(2);
  JobGraph p(&fx.runner);
  JobHandle prev;
  for (int i = 0; i < 4; ++i) {
    prev = p.submit(flops_job("chain-" + std::to_string(i), fx.inputs(2)),
                    {prev});
  }
  p.run_all();
  const std::vector<JobResult>& jobs = p.jobs();
  ASSERT_EQ(jobs.size(), 4u);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].start_seconds,
              jobs[i - 1].start_seconds + jobs[i - 1].sim_seconds - 1e-12);
  }
}

// ---- concurrency ------------------------------------------------------------

TEST(JobGraph, IndependentJobsOverlapOnTheSlotPool) {
  // Two 2-task jobs on a 4-slot cluster: concurrently eligible, they lease
  // disjoint slots and the makespan is one job's time, not two.
  GraphFixture fx(4);
  JobGraph p(&fx.runner);
  const JobHandle a = p.submit(flops_job("a", fx.inputs(2)));
  const JobHandle b = p.submit(flops_job("b", fx.inputs(2)));
  p.run_all();
  const double sum = p.jobs()[0].sim_seconds + p.jobs()[1].sim_seconds;
  EXPECT_EQ(p.wait(a).start_seconds, 0.0);
  EXPECT_EQ(p.wait(b).start_seconds, 0.0);
  EXPECT_NEAR(p.total_sim_seconds(), 2.0, 1e-3);
  EXPECT_LT(p.total_sim_seconds(), sum - 1.0);
}

TEST(JobGraph, ContendedJobsQueueOnBusySlots) {
  // Two 2-task jobs on a 2-slot cluster: eligible together but there is
  // nothing to lease, so the second job's tasks wait for the first's slots
  // and the makespan equals the serial sum.
  GraphFixture fx(2);
  JobGraph p(&fx.runner);
  p.submit(flops_job("a", fx.inputs(2)));
  p.submit(flops_job("b", fx.inputs(2)));
  p.run_all();
  EXPECT_NEAR(p.total_sim_seconds(), 4.0, 1e-3);
}

TEST(JobGraph, ConcurrentRunsAreDeterministic) {
  // Same DAG, two fresh clusters: identical makespan bits, identical
  // per-job results, identical run-report JSON — regardless of the real
  // (wall-clock) interleaving of the worker thread.
  const auto drive = [](GraphFixture& fx) {
    JobGraph p(&fx.runner);
    const JobHandle a = p.submit(count_job("count-a", fx.inputs(3), "/outa"));
    const JobHandle b = p.submit(count_job("count-b", fx.inputs(4), "/outb"));
    const JobHandle c = p.submit(flops_job("fan-in", fx.inputs(2)), {a, b});
    p.run_all();
    (void)c;
    struct Out {
      double sim;
      std::string json;
    } out;
    out.sim = p.total_sim_seconds();
    out.json = run_report_json(
        build_run_report(p.jobs(), fx.cluster, &fx.metrics, p.master_spans()));
    return out;
  };
  GraphFixture fx1(4), fx2(4);
  const auto r1 = drive(fx1);
  const auto r2 = drive(fx2);
  EXPECT_EQ(r1.sim, r2.sim);  // exact, not approximate
  EXPECT_EQ(r1.json, r2.json);
}

TEST(JobGraph, DiamondDependenciesScheduleCorrectly) {
  // a -> {b, c} -> d. b and c overlap after a; d waits for both.
  GraphFixture fx(4);
  JobGraph p(&fx.runner);
  const JobHandle a = p.submit(flops_job("a", fx.inputs(2)));
  const JobHandle b = p.submit(flops_job("b", fx.inputs(2)), {a});
  const JobHandle c = p.submit(flops_job("c", fx.inputs(2)), {a});
  const JobHandle d = p.submit(flops_job("d", fx.inputs(2)), {b, c});
  p.run_all();

  const JobResult& ra = p.wait(a);
  const JobResult& rb = p.wait(b);
  const JobResult& rc = p.wait(c);
  const JobResult& rd = p.wait(d);
  const double a_end = ra.start_seconds + ra.sim_seconds;
  EXPECT_EQ(ra.start_seconds, 0.0);
  EXPECT_EQ(rb.start_seconds, a_end);
  EXPECT_EQ(rc.start_seconds, a_end);  // overlaps b, not serialized after it
  EXPECT_GE(rd.start_seconds, rb.start_seconds + rb.sim_seconds - 1e-12);
  EXPECT_GE(rd.start_seconds, rc.start_seconds + rc.sim_seconds - 1e-12);
  // 3 levels of 2 s each, not 4 serial jobs.
  EXPECT_NEAR(p.total_sim_seconds(), 6.0, 1e-3);
  double serial_sum = 0.0;
  for (const JobResult& j : p.jobs()) serial_sum += j.sim_seconds;
  EXPECT_LT(p.total_sim_seconds(), serial_sum - 1.0);
  EXPECT_EQ(p.job_count(), 4);
}

// ---- real execution on the waiting thread ----------------------------------

TEST(JobGraphExecution, WithNoPoolEveryTaskRunsOnTheWaitingThread) {
  GraphFixture fx(4, flops_model(), /*on_caller=*/true);
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  const auto note = [&](TaskContext&) {
    std::lock_guard<std::mutex> lock(mu);
    ran_on.push_back(std::this_thread::get_id());
  };
  JobGraph p(&fx.runner);
  const JobHandle a = p.submit(probe_job("a", fx.inputs(4), note, 2));
  const JobHandle b = p.submit(probe_job("b", fx.inputs(3), note, 3), {a});
  p.wait(b);
  // One probe per map task and per reduce() call (one key per map task).
  ASSERT_EQ(ran_on.size(), 14u);
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(JobGraphExecution, JobsExecuteInSubmissionOrder) {
  // a -> {b, c} -> d, then e with no dependencies. run_all() places e
  // second (it is ready at 0, b and c only once a finishes), but real
  // execution still follows submission order.
  GraphFixture fx(4);
  std::mutex mu;
  std::vector<std::string> executed;
  const auto job = [&](const std::string& name) {
    return probe_job(name, fx.inputs(2), [&mu, &executed, name](
                                             TaskContext& ctx) {
      if (ctx.task_index() != 0) return;
      std::lock_guard<std::mutex> lock(mu);
      executed.push_back(name);
    });
  };
  JobGraph p(&fx.runner);
  const JobHandle a = p.submit(job("a"));
  const JobHandle b = p.submit(job("b"), {a});
  const JobHandle c = p.submit(job("c"), {a});
  const JobHandle d = p.submit(job("d"), {b, c});
  const JobHandle e = p.submit(job("e"));
  EXPECT_TRUE(executed.empty()) << "submit() must not execute";
  p.run_all();
  EXPECT_EQ(executed, (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  EXPECT_EQ(p.wait(e).start_seconds, 0.0);
  EXPECT_GT(p.wait(b).start_seconds, 0.0);
  EXPECT_EQ(p.wait(d).start_seconds,
            p.wait(b).start_seconds + p.wait(b).sim_seconds);
}

TEST(JobGraphExecution, JobAfterAKillReadsThePostKillDfs) {
  // The kill lands inside job a's run; a's finish() applies it to the DFS.
  // Job b executes only after a is placed, so it sees the node dead.
  MetricsRegistry metrics;
  Cluster cluster(4, flops_model());
  dfs::Dfs fs(4, dfs::DfsConfig{}, &metrics);
  ChaosEngine chaos;
  chaos.add_event({ChaosEventKind::kKillNode, 1.0, 3, 1.0});
  fs.bind_chaos(&chaos);
  ThreadPool pool(4);
  JobRunner runner(&cluster, &fs, &pool, nullptr, &metrics, &chaos);
  std::vector<std::string> inputs;
  for (int i = 0; i < 2; ++i) {
    inputs.push_back("/in/" + std::to_string(i));
    fs.write_text(inputs.back(), "x");
  }
  std::atomic<int> live_in_a{0}, live_in_b{0};
  JobGraph p(&runner);
  const JobHandle a = p.submit(probe_job(
      "a", inputs,
      [&](TaskContext& ctx) { live_in_a = ctx.fs().live_datanodes(); }));
  const JobHandle b = p.submit(
      probe_job("b", inputs,
                [&](TaskContext& ctx) {
                  live_in_b = ctx.fs().live_datanodes();
                }),
      {a});
  p.wait(b);
  EXPECT_GT(p.wait(a).start_seconds + p.wait(a).sim_seconds, 1.0);
  EXPECT_EQ(live_in_a.load(), 4);
  EXPECT_EQ(live_in_b.load(), 3);
}

// ---- master work ------------------------------------------------------------

TEST(JobGraph, MasterWorkRecordsSpansOnTheTimeline) {
  GraphFixture fx(2);
  JobGraph p(&fx.runner);
  const JobHandle a = p.submit(flops_job("a", fx.inputs(2)));
  p.wait(a);
  IoStats master;
  master.mults = 1'000'000'000;
  p.add_master_work(master);
  const JobHandle b = p.submit(flops_job("b", fx.inputs(2)), {a});
  p.wait(b);

  ASSERT_EQ(p.master_spans().size(), 1u);
  const MasterSpan& span = p.master_spans()[0];
  const JobResult& ra = p.wait(a);
  EXPECT_EQ(span.start, ra.start_seconds + ra.sim_seconds);
  EXPECT_EQ(span.end - span.start, p.master_seconds());
  EXPECT_EQ(span.io.mults, master.mults);
  // The next job starts only after the master's gap.
  EXPECT_EQ(p.wait(b).start_seconds, span.end);
  EXPECT_EQ(p.total_sim_seconds(),
            p.wait(b).start_seconds + p.wait(b).sim_seconds);
}

// ---- errors and edge cases --------------------------------------------------

TEST(JobGraph, WaitRethrowsTaskErrors) {
  GraphFixture fx(2);
  JobGraph p(&fx.runner);
  JobSpec broken;
  broken.name = "broken";
  broken.input_files = fx.inputs(1);
  broken.mapper_factory = [] {
    class M : public Mapper {
      void map(std::int64_t, const std::string&, TaskContext&) override {
        throw NumericalError("singular");
      }
    };
    return std::make_unique<M>();
  };
  const JobHandle h = p.submit(std::move(broken));
  EXPECT_THROW(p.wait(h), JobError);
}

TEST(JobGraph, InvalidHandleDepsAreIgnored) {
  // A default-constructed handle means "no dependency" — the LU driver
  // passes one for the first job in its chain.
  GraphFixture fx(2);
  JobGraph p(&fx.runner);
  const JobHandle h = p.submit(flops_job("a", fx.inputs(2)), {JobHandle{}});
  EXPECT_EQ(p.wait(h).start_seconds, 0.0);
}

// ---- negative keys end to end -----------------------------------------------

TEST(JobGraph, NegativeKeysFlowThroughDefaultPartitioner) {
  // Mapper emits negative keys; the default floor-mod partitioner must
  // route them to valid reduce tasks and the reducers must see them.
  GraphFixture fx(4);
  class NegMapper : public Mapper {
   public:
    void map(std::int64_t, const std::string& value,
             TaskContext& ctx) override {
      ctx.emit(-static_cast<std::int64_t>(value.size()), value);
    }
  };
  class EchoReducer : public Reducer {
   public:
    void reduce(std::int64_t key, const std::vector<std::string>& values,
                TaskContext& ctx) override {
      EXPECT_LT(key, 0);
      ctx.fs().write_text("/neg/key." + std::to_string(key),
                          std::to_string(values.size()), &ctx.io());
    }
  };
  JobSpec spec;
  spec.name = "neg-keys";
  spec.input_files = fx.inputs(4);  // values x0..x3, all length 2
  spec.num_reduce_tasks = 3;
  spec.mapper_factory = [] { return std::make_unique<NegMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<EchoReducer>(); };
  JobGraph p(&fx.runner);
  p.wait(p.submit(std::move(spec)));
  EXPECT_EQ(fx.fs.read_text("/neg/key.-2"), "4");
}

// ---- teardown of submitted-but-never-waited jobs ----------------------------

// A job whose map phase throws (its input file does not exist).
JobSpec failing_job(std::string name) {
  JobSpec spec = flops_job(std::move(name), {"/no/such/file"});
  return spec;
}

TEST(JobGraphTeardown, AbandonedJobsStillExecute) {
  // Destroying the graph with submitted-but-never-wait()ed jobs must drain
  // them, not discard them: their DFS side effects exist afterwards.
  GraphFixture fx(4);
  {
    JobGraph g(&fx.runner);
    g.submit(count_job("abandoned", fx.inputs(4), "/drain"));
    // No wait(), no run_all(): the destructor joins the worker.
  }
  EXPECT_EQ(fx.fs.read_text("/drain/len.2"), "4");
}

TEST(JobGraphTeardown, AbandonedErrorReachesHandler) {
  GraphFixture fx(2);
  std::vector<std::string> reported;
  std::string message;
  {
    JobGraphOptions options;
    options.abandoned_error_handler = [&](const std::string& job,
                                          std::exception_ptr error) {
      reported.push_back(job);
      try {
        std::rethrow_exception(error);
      } catch (const JobError& e) {
        message = e.what();
      }
    };
    JobGraph g(&fx.runner, std::move(options));
    g.submit(failing_job("doomed"));
  }
  ASSERT_EQ(reported.size(), 1u);
  EXPECT_EQ(reported[0], "doomed");
  EXPECT_NE(message.find("doomed"), std::string::npos);
}

TEST(JobGraphTeardown, WaitedErrorIsNotReportedAgain) {
  GraphFixture fx(2);
  int reported = 0;
  {
    JobGraphOptions options;
    options.abandoned_error_handler = [&](const std::string&,
                                          std::exception_ptr) { ++reported; };
    JobGraph g(&fx.runner, std::move(options));
    const JobHandle h = g.submit(failing_job("seen"));
    EXPECT_THROW(g.wait(h), JobError);
  }
  EXPECT_EQ(reported, 0) << "wait() consumed the error; the teardown "
                            "handler must not double-report it";
}

TEST(JobGraphTeardown, MixedOutcomesReportOnlyUnconsumedErrors) {
  GraphFixture fx(4);
  std::vector<std::string> reported;
  {
    JobGraphOptions options;
    options.abandoned_error_handler = [&](const std::string& job,
                                          std::exception_ptr) {
      reported.push_back(job);
    };
    JobGraph g(&fx.runner, std::move(options));
    const JobHandle ok = g.submit(flops_job("fine", fx.inputs(2)));
    g.submit(failing_job("lost-1"));
    g.submit(failing_job("lost-2"));
    g.wait(ok);  // succeeds; the two failures are never consumed
  }
  ASSERT_EQ(reported.size(), 2u);
  EXPECT_EQ(reported[0], "lost-1");
  EXPECT_EQ(reported[1], "lost-2");
}

// ---- shared pool across graphs ----------------------------------------------

TEST(JobGraphSharedPool, PoolSizeMismatchThrowsOnLease) {
  // Satellite: the runner re-validates the pool against the cluster on
  // every lease instead of trusting a stale snapshot.
  GraphFixture fx(4);  // 4 nodes x 1 slot
  SlotPool wrong(fx.cluster.total_slots() + 1);
  JobGraphOptions options;
  options.shared_pool = &wrong;
  JobGraph g(&fx.runner, std::move(options));
  const JobHandle h = g.submit(flops_job("a", fx.inputs(2)));
  EXPECT_THROW(g.wait(h), InvalidArgument);
}

TEST(JobGraphSharedPool, NodeDeathWithTwoConcurrentGraphs) {
  // Two JobGraphs lease one SlotPool while failure injection kills a node
  // under the first graph's map phase. Lease accounting must stay
  // consistent: merged per-slot spans never overlap in absolute time,
  // busy-slot-seconds equal the sum over both graphs' traces, and the
  // combined makespan is the max of the two graphs' finish times.
  MetricsRegistry metrics;
  Cluster cluster(4, flops_model());
  dfs::Dfs fs(4, dfs::DfsConfig{}, &metrics);
  ThreadPool pool(4);
  FailureInjector failures;
  failures.add_rule({"g1-job", /*task_index=*/0, /*attempt=*/0,
                     /*map_task=*/true});
  JobRunner runner(&cluster, &fs, &pool, &failures, &metrics);
  for (int i = 0; i < 4; ++i) {
    { const std::string n = std::to_string(i); fs.write_text("/in/" + n, "x" + n); }
  }
  const auto inputs = [&](int count) {
    std::vector<std::string> files;
    for (int i = 0; i < count; ++i) {
      files.push_back("/in/" + std::to_string(i));
    }
    return files;
  };

  SlotPool shared(cluster.total_slots());
  JobGraphOptions o1, o2;
  o1.shared_pool = &shared;
  o2.shared_pool = &shared;
  JobGraph g1(&runner, std::move(o1));
  JobGraph g2(&runner, std::move(o2));
  const JobHandle h1 = g1.submit(flops_job("g1-job", inputs(4)));
  const JobHandle h2 = g2.submit(flops_job("g2-job", inputs(4)));
  const JobResult& r1 = g1.wait(h1);
  // g2's lease at start 0 sees g1's committed occupancy (including the
  // failure's retry serialization) because g1 was placed first.
  const JobResult& r2 = g2.wait(h2);
  EXPECT_EQ(r1.failures_recovered, 1);
  EXPECT_EQ(r2.failures_recovered, 0);

  // Merge both graphs' traces onto the absolute timeline.
  std::vector<JobResult> all = {r1, r2};
  double busy = 0.0;
  std::map<int, std::vector<std::pair<double, double>>> by_slot;
  for (const PhaseTrace& phase : phase_traces(all)) {
    for (const TaskTraceEvent& e : phase.events) {
      busy += e.end - e.start;
      by_slot[e.slot].push_back({phase.start + e.start, phase.start + e.end});
    }
  }
  for (auto& [slot, spans] : by_slot) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_LE(spans[i - 1].second, spans[i].first + 1e-12)
          << "slot " << slot << " leased to two graphs at once";
    }
  }

  RunReport report = build_run_report(all, cluster, &metrics);
  EXPECT_NEAR(report.busy_slot_seconds, busy, 1e-12);
  EXPECT_NEAR(report.sim_seconds,
              std::max(g1.total_sim_seconds(), g2.total_sim_seconds()),
              1e-12);
  EXPECT_EQ(report.failures_recovered, 1);
}

}  // namespace
}  // namespace mri::mr

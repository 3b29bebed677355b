// JobRunner: executes one MapReduce job for real (on a thread pool, or on
// the calling thread when given none) and charges simulated time (scheduler
// + cost model).
//
// Execution order per job:
//   1. map tasks run in parallel — each reads its input file, runs the user
//      Mapper, accounts its own IoStats, and may write DFS output directly;
//   2. injected failures are turned into "ghost" attempts (half the work of
//      the successful attempt — the task died midway) that cost simulated
//      time and a node, but never touch the DFS, matching Hadoop's task
//      commit protocol where failed attempts' output is discarded;
//   3. the shuffle partitions/groups/sorts emitted pairs;
//   4. reduce tasks run in parallel the same way;
//   5. job simulated time = launch overhead + map phase + reduce phase.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "dfs/dfs.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/scheduler.hpp"
#include "sim/chaos.hpp"
#include "sim/cluster.hpp"
#include "sim/failure.hpp"
#include "sim/metrics.hpp"

namespace mri::engine {
class SpinEngine;
}

namespace mri::mr {

/// A job whose real work (map, shuffle, reduce, DFS writes) has completed
/// but whose simulated timeline has not been decided yet. `result` carries
/// everything scheduling-independent (io, counts, shuffle bytes, recovered
/// failures); the per-task attempt lists feed schedule_phase() in finish().
struct ExecutedJob {
  JobResult result;
  std::vector<std::vector<Attempt>> map_attempts;
  std::vector<std::vector<Attempt>> reduce_attempts;
};

class JobRunner {
 public:
  /// All pointers are borrowed and must outlive the runner. `pool`,
  /// `failures`, `metrics` and `chaos` may be null; with no pool, execute()
  /// runs every task on the calling thread, in task order, with the pool's
  /// error behaviour (serial_for), so results and DFS side effects are the
  /// same either way. With a chaos engine attached,
  /// finish() overlays its fault schedule on both phases (node outages,
  /// stragglers), re-executes completed map tasks whose outputs died with a
  /// node before the reduce phase consumed them, and advances the engine to
  /// the job's end so DFS-side consequences (block loss, re-replication)
  /// land before the next job reads.
  /// With a SPIN `engine` attached, execute() opens every job through
  /// engine::SpinEngine::begin_job (cache epoch + eviction pass; the spill
  /// accounting rides the job's first map attempt), and finish() stalls a
  /// job whose start predates the engine's lineage-recovery completion.
  JobRunner(const Cluster* cluster, dfs::Dfs* fs, ThreadPool* pool,
            FailureInjector* failures = nullptr,
            MetricsRegistry* metrics = nullptr, ChaosEngine* chaos = nullptr,
            engine::SpinEngine* engine = nullptr);

  /// Runs the job to completion. Throws JobError if a task throws.
  /// Equivalent to finish(execute(spec)) — the job owns an idle cluster.
  JobResult run(const JobSpec& spec);

  /// Phase 1: performs the job's real work. Throws JobError if a task
  /// throws. Charges no simulated time.
  ExecutedJob execute(const JobSpec& spec);

  /// Phase 2: places both phases on the simulated timeline starting at
  /// absolute run time `start_seconds`, leasing slots from `pool` when one
  /// is given (offsets of zero — no pool, or an idle pool — reproduce the
  /// standalone schedule exactly). A non-empty `tenant` takes the lease
  /// through the pool's fair-share policy (set_shares()): the phase may only
  /// place tasks on the tenant's slots plus slots of currently idle tenants.
  /// Re-validates on every lease that the pool still matches the cluster —
  /// pools outlive individual requests, clusters can be swapped between
  /// them. Fills durations, traces, speculation and metrics. Driver-thread
  /// only: the pool and metrics are not synchronized against concurrent
  /// finish() calls.
  JobResult finish(ExecutedJob executed, SlotPool* pool = nullptr,
                   double start_seconds = 0.0, const std::string& tenant = {});

  const Cluster& cluster() const { return *cluster_; }
  dfs::Dfs& fs() { return *fs_; }

 private:
  const Cluster* cluster_;
  dfs::Dfs* fs_;
  ThreadPool* pool_;
  FailureInjector* failures_;
  MetricsRegistry* metrics_;
  ChaosEngine* chaos_;
  engine::SpinEngine* engine_;
};

}  // namespace mri::mr

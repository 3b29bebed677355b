// Async DAG job executor over one JobRunner and one shared cluster.
//
// submit() enqueues a job (with explicit dependencies on earlier handles)
// for real execution on a background thread and returns immediately;
// wait() blocks for the job's results and places it — together with any
// not-yet-placed ancestors — on the simulated timeline. Concurrently
// eligible jobs share the cluster through a SlotPool: each phase leases the
// slots other jobs still occupy at its start, so independent jobs overlap
// where free slots exist and total_sim_seconds() is the DAG makespan, not a
// serial sum.
//
// Determinism and sequential equivalence:
//   * Simulated placement happens only on the driver thread, in a canonical
//     order — ready jobs by (ready time, submission index) — so timings are
//     a pure function of the submitted DAG, never of real thread timing.
//   * A job's ready time is max(master frontier at submit, dependencies'
//     finish times); the master frontier advances only when the driver
//     wait()s for a job or charges add_master_work(). A strictly sequential
//     submit+wait pattern therefore leases an idle cluster at a start equal
//     to the old running sum, reproducing the pre-DAG serial numbers
//     bit-for-bit (same schedule_phase heap states, same additions in the
//     same order).
//
// Hadoop 1.x (which the paper ran on) executed one job at a time; this
// executor is the "what if the inversion plan were a DAG" counterfactual —
// see DESIGN.md.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/runtime.hpp"
#include "sim/trace.hpp"

namespace mri::mr {

/// Opaque reference to a submitted job. Value-copyable; invalid() handles
/// (the default) are permitted as "no dependency" placeholders.
struct JobHandle {
  int id = -1;
  bool valid() const { return id >= 0; }
};

/// Construction knobs for graphs that share a cluster with other graphs —
/// the service layer runs one JobGraph per admitted request against one
/// SlotPool. Defaults reproduce the standalone single-graph behaviour.
struct JobGraphOptions {
  /// Borrowed arbiter shared with other graphs; null = the graph owns a
  /// private pool sized to the runner's cluster. Must outlive the graph and
  /// match the cluster's slot count (re-validated on every lease).
  SlotPool* shared_pool = nullptr;
  /// Starting master frontier: the absolute run time this graph's timeline
  /// begins at (a service request's dispatch time). Job start_seconds and
  /// master spans come out absolute, so many graphs lay onto one timeline.
  double origin_seconds = 0.0;
  /// Fair-share identity for slot leases (see SlotPool::set_shares); empty
  /// leases the whole pool first-come first-served.
  std::string tenant;
  /// Called at destruction for every job that executed with an error nobody
  /// wait()ed for — instead of losing the failure. Null = log at ERROR.
  std::function<void(const std::string& job, std::exception_ptr)>
      abandoned_error_handler;
};

class JobGraph {
 public:
  explicit JobGraph(JobRunner* runner) : JobGraph(runner, JobGraphOptions{}) {}
  JobGraph(JobRunner* runner, JobGraphOptions options);
  /// Joins the worker after draining every submitted job (abandoned jobs
  /// still execute so their outcome is known), then reports any errors that
  /// were never consumed by wait() through the abandoned-error handler.
  ~JobGraph();
  JobGraph(const JobGraph&) = delete;
  JobGraph& operator=(const JobGraph&) = delete;

  /// Enqueues `spec` for execution after `deps` (all must be handles from
  /// this graph). Real execution starts immediately in the background —
  /// submission order — independent of the simulated schedule.
  JobHandle submit(JobSpec spec, std::vector<JobHandle> deps = {});

  /// Blocks until `h` has executed, places it (and any unplaced ancestors)
  /// on the simulated timeline, advances the master frontier to its finish,
  /// and returns its result. Rethrows the job's JobError if it failed.
  const JobResult& wait(JobHandle h);

  /// wait()s for every submitted job; the frontier becomes the makespan.
  void run_all();

  /// Charges serial master-node work at the current frontier and records a
  /// master-lane span for the run report / Chrome trace.
  void add_master_work(const IoStats& io);

  // Accessors require every submitted job to have been placed (wait()ed or
  // run_all()) — totals of a half-scheduled DAG would be meaningless.
  /// Makespan of the executed DAG: max over job finish times and the master
  /// frontier. Equals the serial sum for purely sequential submissions.
  double total_sim_seconds() const;
  double master_seconds() const { return master_seconds_; }
  const IoStats& total_io() const;
  int job_count() const;
  int failures_recovered() const;
  int backups_run() const;
  /// Results in submission order, with run-relative start_seconds stamped.
  const std::vector<JobResult>& jobs() const;
  const std::vector<MasterSpan>& master_spans() const { return master_spans_; }

  const JobRunner& runner() const { return *runner_; }

 private:
  struct Node {
    JobSpec spec;
    std::vector<int> deps;
    double submit_frontier = 0.0;  // master frontier when submitted
    // Worker -> driver handoff, guarded by mu_.
    bool executed = false;
    ExecutedJob work;
    std::exception_ptr error;
    bool error_consumed = false;  // rethrown by wait(); not "abandoned"
    // Driver-thread-only simulated placement.
    bool placed = false;
    double finish_time = 0.0;
    JobResult result;
  };

  void worker_loop();
  /// Places the unplaced ancestor closure of `targets` (inclusive) on the
  /// timeline in (ready time, submission index) order.
  void place_closure(const std::vector<int>& targets);
  void require_all_placed(const char* what) const;

  JobRunner* runner_;
  JobGraphOptions options_;
  std::unique_ptr<SlotPool> owned_pool_;  // null when options_.shared_pool set
  SlotPool* pool_;
  std::vector<std::unique_ptr<Node>> nodes_;  // guarded by mu_ (growth)
  double frontier_ = 0.0;       // driver-only: master timeline position
  double master_seconds_ = 0.0;
  IoStats io_;
  int failures_ = 0;
  int backups_ = 0;
  std::vector<MasterSpan> master_spans_;
  mutable std::vector<JobResult> jobs_cache_;
  mutable bool jobs_cache_dirty_ = false;

  std::mutex mu_;
  std::condition_variable cv_work_;  // worker: new submissions / stop
  std::condition_variable cv_done_;  // driver: a job finished executing
  std::size_t next_exec_ = 0;        // next node the worker runs
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace mri::mr

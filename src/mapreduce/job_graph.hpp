// DAG job executor over one JobRunner and one shared cluster.
//
// submit() records a job (with explicit dependencies on earlier handles) and
// returns immediately; wait() places the job — together with any not-yet-
// placed ancestors — on the simulated timeline. Each job's real work (the
// runner's execute()) runs on the calling thread just before the job is
// placed, after every earlier submission has run. Concurrently eligible jobs
// share the cluster through a SlotPool: each phase leases the slots other
// jobs still occupy at its start, so independent jobs overlap where free
// slots exist and total_sim_seconds() is the DAG makespan, not a serial sum.
//
// Determinism and sequential equivalence:
//   * Real execution is in submission order, so a job's inputs (written by
//     its dependencies, which are earlier submissions) exist when it runs,
//     and the DFS-side consequences of every earlier placement (finish()
//     applies chaos events up to the job's end) are in place before its
//     reads.
//   * Placement is in a canonical order — ready jobs by (ready time,
//     submission index) — so timings are a pure function of the submitted
//     DAG.
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

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
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
  /// Executes every submitted job that has not run yet (abandoned jobs
  /// still execute so their outcome is known), then reports any errors that
  /// were never consumed by wait() through the abandoned-error handler.
  ~JobGraph();
  JobGraph(const JobGraph&) = delete;
  JobGraph& operator=(const JobGraph&) = delete;

  /// Records `spec` to run after `deps` (all must be handles from this
  /// graph). Nothing executes until a wait() or run_all() places the job or
  /// a later submission, or the graph is destroyed.
  JobHandle submit(JobSpec spec, std::vector<JobHandle> deps = {});

  /// Executes and places `h` (and any unplaced ancestors) on the simulated
  /// timeline, advances the master frontier to its finish, and returns its
  /// result. Rethrows the job's JobError if it failed.
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
    ExecutedJob work;              // set once the job has executed
    std::exception_ptr error;
    bool error_consumed = false;  // rethrown by wait(); not "abandoned"
    bool placed = false;
    double finish_time = 0.0;
    JobResult result;
  };

  /// Executes, in submission order, every job up to and including `id`
  /// that has not run yet, keeping each one's work or error on its node.
  void execute_through(std::size_t id);
  /// Places the unplaced ancestor closure of `targets` (inclusive) on the
  /// timeline in (ready time, submission index) order.
  void place_closure(const std::vector<int>& targets);
  void require_all_placed(const char* what) const;

  JobRunner* runner_;
  JobGraphOptions options_;
  std::unique_ptr<SlotPool> owned_pool_;  // null when options_.shared_pool set
  SlotPool* pool_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::size_t executed_ = 0;    // nodes_[0, executed_) have run
  double frontier_ = 0.0;       // master timeline position
  double master_seconds_ = 0.0;
  IoStats io_;
  int failures_ = 0;
  int backups_ = 0;
  std::vector<MasterSpan> master_spans_;
  mutable std::vector<JobResult> jobs_cache_;
  mutable bool jobs_cache_dirty_ = false;
};

}  // namespace mri::mr

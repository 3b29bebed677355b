// Public API: scalable matrix inversion as a pipeline of MapReduce jobs.
//
// Usage:
//   Cluster cluster(16, CostModel::ec2_medium());
//   dfs::Dfs fs(cluster.size());
//   ThreadPool pool(8);
//   core::MapReduceInverter inverter(&cluster, &fs, &pool);
//   auto result = inverter.invert(a, options);
//   // result.inverse, result.report.sim_seconds, result.report.io, ...
//
// The pipeline is exactly the paper's Figure 2: master writes the MapInput
// control files; one partition job (Algorithm 3); 2^d - 1 LU jobs
// (Algorithm 2) with the 2^d leaf decompositions on the master; one final
// job inverting the triangular factors and multiplying (§5.4).
#pragma once

#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "engine/spin_engine.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/job_graph.hpp"
#include "core/multiply_job.hpp"
#include "core/options.hpp"
#include "core/plan.hpp"
#include "dfs/dfs.hpp"
#include "matrix/matrix.hpp"
#include "matrix/permutation.hpp"
#include "sim/chaos.hpp"
#include "sim/cluster.hpp"
#include "sim/failure.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "sim/trace.hpp"

namespace mri::core {

/// Largest matrix order whose inversion runs its map and reduce tasks on the
/// calling thread instead of the pool. Up to here every measured inversion
/// ran faster that way than with its tasks handed to a 4-thread pool; the
/// measurements are in DESIGN.md, "DAG job executor".
inline constexpr Index kCallerThreadMaxOrder = 512;

/// The pool an order-`n` inversion runs its tasks on: null (the calling
/// thread) up to kCallerThreadMaxOrder, `pool` above it.
inline ThreadPool* task_pool_for(Index n, ThreadPool* pool) {
  return n <= kCallerThreadMaxOrder ? nullptr : pool;
}

class MapReduceInverter {
 public:
  /// All pointers are borrowed. `failures`, `metrics` and `chaos` may be
  /// null. A chaos engine must be bound to the DFS (Dfs::bind_chaos()) by
  /// the caller so node kills reach the block layer. invert(), invert_dfs()
  /// and solve() run their tasks on `pool` or the calling thread, chosen by
  /// task_pool_for(); invert_with() and invert_on() use the graph's runner.
  MapReduceInverter(const Cluster* cluster, dfs::Dfs* fs, ThreadPool* pool,
                    FailureInjector* failures = nullptr,
                    MetricsRegistry* metrics = nullptr,
                    ChaosEngine* chaos = nullptr);

  struct Result {
    Matrix inverse;
    SimReport report;
    InversionPlan plan;
    /// Partition + LU jobs + master leaf work (the Table 1 stage).
    SimReport lu_stage;
    /// The final triangular-inversion/product job (the Table 2 stage).
    SimReport inversion_stage;
    /// det(A), read off the LU factors (sign and log-magnitude).
    double det_log_abs = 0.0;
    int det_sign = 1;
    /// Every job the pipeline ran, in order, with per-attempt traces and
    /// run-relative start times — feed to mr::build_run_report() /
    /// chrome_trace_json() for the run-report and trace exports.
    std::vector<mr::JobResult> jobs;
    /// Master-node work intervals (leaf LUs, determinant read, combine
    /// penalties) on the same run timeline as `jobs` — the 4th argument of
    /// mr::build_run_report().
    std::vector<MasterSpan> master_spans;
    /// Handle of the final inversion job — dependency anchor for follow-on
    /// submissions on the same graph (solve() chains its multiply here).
    mr::JobHandle final_job;
    /// SPIN engine observability: cache, spill, lineage-recovery totals and
    /// trace events. Filled (and engine_active set) only when the run
    /// selected the spin engine AND this inverter owned the graph
    /// (invert/invert_dfs); callers running invert_with on their own graph
    /// own their own engine.
    bool engine_active = false;
    engine::EngineStats engine_stats;
  };

  /// Ingests `a` into the DFS and inverts it. Throws NumericalError if `a`
  /// is numerically singular.
  Result invert(const Matrix& a, const InversionOptions& options = {});

  /// Inverts a binary matrix file already in the DFS.
  Result invert_dfs(const std::string& input_path,
                    const InversionOptions& options = {});

  struct SolveResult {
    Matrix x;
    SimReport report;  // inversion pipeline + the multiply job(s)
    std::vector<mr::JobResult> jobs;  // inversion jobs + the multiply job(s)
    std::vector<MasterSpan> master_spans;  // master work on the same timeline
    /// Schedule the multiply strategy executed (rounds, grid, peak task
    /// bytes) — options.multiply picks the strategy.
    MultiplyPlan multiply_plan;
  };

  /// Solves A·X = B (the paper's §1 headline application) by inverting A
  /// with the pipeline and multiplying X = A⁻¹·B with the MapReduce
  /// multiply strategy selected by options.multiply (§6.2 block wrap by
  /// default, or the multi-round scheme).
  SolveResult solve(const Matrix& a, const Matrix& b,
                    const InversionOptions& options = {});

  /// Runs the whole inversion pipeline on a caller-owned JobGraph, so the
  /// caller controls the placement context — solve() chains its multiply on
  /// the same timeline, and the service layer builds the graph with a
  /// shared SlotPool, a dispatch-time origin and a fair-share tenant (see
  /// mr::JobGraphOptions) so many requests interleave on one cluster.
  Result invert_with(mr::JobGraph& graph, const std::string& input_path,
                     const InversionOptions& options);

  /// Ingests `a` into the DFS (under options.work_dir) and inverts it on the
  /// caller's graph. Convenience wrapper over invert_with().
  Result invert_on(mr::JobGraph& graph, const Matrix& a,
                   const InversionOptions& options = {});

 private:
  /// The spin engine (when selected), runner and graph of one run this
  /// inverter owns; see inverter.cpp.
  struct OwnedGraph;

  /// Writes square `a` to <work_dir>/a.bin, replacing any earlier input,
  /// and returns that path.
  std::string ingest(const Matrix& a, const InversionOptions& options);

  /// invert_with() on an input whose order `n` the caller has read.
  Result invert_order(mr::JobGraph& graph, const std::string& input_path,
                      Index n, const InversionOptions& options);

  const Cluster* cluster_;
  dfs::Dfs* fs_;
  ThreadPool* pool_;
  FailureInjector* failures_;
  MetricsRegistry* metrics_;
  ChaosEngine* chaos_;
};

}  // namespace mri::core

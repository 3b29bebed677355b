#include "core/inverter.hpp"

#include <memory>

#include "common/logging.hpp"
#include "core/assemble.hpp"
#include "core/inverse_job.hpp"
#include "core/lu_pipeline.hpp"
#include "core/multiply_job.hpp"
#include "core/partition.hpp"
#include "dfs/path.hpp"
#include "matrix/dfs_io.hpp"

namespace mri::core {

namespace {

Index square_order(const dfs::Dfs& fs, const std::string& input_path) {
  const MatrixShape shape = read_matrix_shape(fs, input_path);
  MRI_REQUIRE(shape.rows == shape.cols, "input matrix is not square");
  return shape.rows;
}

}  // namespace

MapReduceInverter::MapReduceInverter(const Cluster* cluster, dfs::Dfs* fs,
                                     ThreadPool* pool,
                                     FailureInjector* failures,
                                     MetricsRegistry* metrics,
                                     ChaosEngine* chaos)
    : cluster_(cluster), fs_(fs), pool_(pool), failures_(failures),
      metrics_(metrics), chaos_(chaos) {
  MRI_REQUIRE(cluster != nullptr && fs != nullptr && pool != nullptr,
              "MapReduceInverter needs a cluster, a DFS and a thread pool");
}

// One run on a graph this inverter owns. Members construct in order: the
// spin engine (RAII scope) registers itself with the DFS (tier listener)
// and the chaos engine (lineage kill handler) for exactly this run, so it
// sees the one read of the input's shape; the order read picks the runner's
// pool; and on destruction the graph runs any job left before the engine
// restores both.
struct MapReduceInverter::OwnedGraph {
  OwnedGraph(const MapReduceInverter& inv, const InversionOptions& options,
             const std::string& input_path)
      : spin(options.engine == EngineKind::kSpin
                 ? std::make_unique<engine::SpinEngine>(
                       inv.fs_, inv.chaos_, &inv.cluster_->cost_model(),
                       inv.metrics_, options.cache_capacity_bytes)
                 : nullptr),
        n(square_order(*inv.fs_, input_path)),
        runner(inv.cluster_, inv.fs_, task_pool_for(n, inv.pool_),
               inv.failures_, inv.metrics_, inv.chaos_, spin.get()),
        graph(&runner) {}

  std::unique_ptr<engine::SpinEngine> spin;
  Index n;
  mr::JobRunner runner;
  mr::JobGraph graph;
};

std::string MapReduceInverter::ingest(const Matrix& a,
                                      const InversionOptions& options) {
  MRI_REQUIRE(a.square(), "inversion expects a square matrix, got "
                              << a.rows() << "x" << a.cols());
  const std::string input_path = dfs::join(options.work_dir, "a.bin");
  if (fs_->exists(input_path)) fs_->remove(input_path);
  write_matrix(*fs_, input_path, a);
  return input_path;
}

MapReduceInverter::Result MapReduceInverter::invert(
    const Matrix& a, const InversionOptions& options) {
  return invert_dfs(ingest(a, options), options);
}

MapReduceInverter::Result MapReduceInverter::invert_dfs(
    const std::string& input_path, const InversionOptions& options) {
  OwnedGraph run(*this, options, input_path);
  Result result = invert_order(run.graph, input_path, run.n, options);
  if (run.spin != nullptr) {
    result.engine_active = true;
    result.engine_stats = run.spin->stats();
  }
  return result;
}

MapReduceInverter::Result MapReduceInverter::invert_on(
    mr::JobGraph& graph, const Matrix& a, const InversionOptions& options) {
  return invert_with(graph, ingest(a, options), options);
}

MapReduceInverter::Result MapReduceInverter::invert_with(
    mr::JobGraph& graph, const std::string& input_path,
    const InversionOptions& options) {
  return invert_order(graph, input_path, square_order(*fs_, input_path),
                      options);
}

MapReduceInverter::Result MapReduceInverter::invert_order(
    mr::JobGraph& graph, const std::string& input_path, Index n,
    const InversionOptions& options) {
  const int m0 = cluster_->size();

  Result result;
  result.plan = InversionPlan::make(n, options.nb, m0);
  MRI_INFO() << "inverting order-" << n << " matrix on " << m0
             << " nodes: depth " << result.plan.depth << ", "
             << result.plan.total_jobs << " jobs";

  // Step 1 (§5.1): the master writes the MapInput control files.
  std::vector<std::string> control_files;
  control_files.reserve(static_cast<std::size_t>(m0));
  for (int j = 0; j < m0; ++j) {
    const std::string path =
        dfs::join(options.work_dir, "MapInput/A." + std::to_string(j));
    if (!fs_->exists(path)) fs_->write_text(path, std::to_string(j));
    control_files.push_back(path);
  }

  // Step 2: the partition job (Algorithm 3).
  PartitionGeometry geom =
      make_partition_geometry(n, options.nb, m0, options.work_dir);
  geom.intermediate_tier = options.intermediate_tier();
  const mr::JobHandle partition =
      graph.submit(make_partition_job(geom, input_path, control_files));
  graph.wait(partition);

  // Step 3: the LU pipeline (Algorithm 2), chained onto the partition job.
  const double penalty = cluster_->cost_model().column_stride_penalty;
  LuPipeline lu(&graph, fs_, options, m0, penalty, control_files, partition);
  LuNodePtr root = lu.factor_partitioned(geom);

  // The determinant falls out of the factors: the master reads the leaf U
  // diagonals (charged) and the permutation parity is in memory.
  {
    IoStats det_io;
    const Determinant det = factor_determinant(*fs_, *root, &det_io);
    result.det_log_abs = det.log_abs;
    result.det_sign = det.sign;
    graph.add_master_work(det_io);
  }

  // Step 4: triangular inversion and final product (§5.4).
  auto inv_ctx = std::make_shared<InverseJobContext>();
  inv_ctx->root = root.get();
  inv_ctx->n = n;
  inv_ctx->opts = options;
  inv_ctx->dir = options.work_dir;
  inv_ctx->m0 = m0;
  inv_ctx->layout_penalty = penalty;
  plan_inverse_job(inv_ctx.get());
  if (options.overlap_final_stage) {
    // DAG mode: L⁻¹ and U⁻¹ are independent map-only jobs sharing the
    // cluster's slots; only the multiply/permute job needs both (diamond
    // over the last LU job).
    InverseStageJobs stage = make_inverse_stage_jobs(inv_ctx, control_files);
    const mr::JobHandle hl =
        graph.submit(std::move(stage.invert_l), {lu.last_job()});
    const mr::JobHandle hu =
        graph.submit(std::move(stage.invert_u), {lu.last_job()});
    result.final_job = graph.submit(std::move(stage.multiply), {hl, hu});
  } else {
    result.final_job = graph.submit(make_inverse_job(inv_ctx, control_files));
  }
  graph.wait(result.final_job);

  result.inverse = assemble_inverse(*fs_, *inv_ctx);
  result.report.sim_seconds = graph.total_sim_seconds();
  result.report.master_seconds = graph.master_seconds();
  result.report.io = graph.total_io();
  result.report.jobs = graph.job_count();
  result.report.failures_recovered = graph.failures_recovered();
  result.jobs = graph.jobs();
  result.master_spans = graph.master_spans();

  // Stage split: the final stage is the last job (or the three-job diamond
  // in overlap mode); everything else (partition, LU jobs, master leaf LUs)
  // is the decomposition stage.
  if (options.overlap_final_stage) {
    const std::vector<mr::JobResult>& jobs = result.jobs;
    const std::size_t first = jobs.size() - 3;
    // The stage's wall time is makespan minus the stage's start (the three
    // jobs overlap, so per-job sims don't add up).
    result.inversion_stage.sim_seconds =
        result.report.sim_seconds - jobs[first].start_seconds;
    for (std::size_t i = first; i < jobs.size(); ++i) {
      result.inversion_stage.io += jobs[i].io;
    }
    result.inversion_stage.jobs = 3;
    result.lu_stage = result.report;
    result.lu_stage.sim_seconds = jobs[first].start_seconds;
    result.lu_stage.io = result.report.io - result.inversion_stage.io;
    result.lu_stage.jobs = result.report.jobs - 3;
  } else {
    const mr::JobResult& final_job = graph.jobs().back();
    result.inversion_stage.sim_seconds = final_job.sim_seconds;
    result.inversion_stage.io = final_job.io;
    result.inversion_stage.jobs = 1;
    result.lu_stage = result.report;
    result.lu_stage.sim_seconds -= final_job.sim_seconds;
    result.lu_stage.io = result.report.io - final_job.io;
    result.lu_stage.jobs = result.report.jobs - 1;
  }

  const int expected_jobs =
      result.plan.total_jobs + (options.overlap_final_stage ? 2 : 0);
  MRI_CHECK_MSG(graph.job_count() == expected_jobs,
                "pipeline ran " << graph.job_count() << " jobs, plan said "
                                << expected_jobs);

  // Keep the input and control files (reusable); drop everything the
  // pipeline wrote under the work dir.
  for (const std::string& name : fs_->list(options.work_dir)) {
    if (name == "MapInput" || dfs::join(options.work_dir, name) == input_path)
      continue;
    fs_->remove(dfs::join(options.work_dir, name), /*recursive=*/true);
  }
  return result;
}

MapReduceInverter::SolveResult MapReduceInverter::solve(
    const Matrix& a, const Matrix& b, const InversionOptions& options) {
  MRI_REQUIRE(a.rows() == b.rows(), "solve shape mismatch: A has "
                                        << a.rows() << " rows, B has "
                                        << b.rows());
  const std::string input_path = ingest(a, options);

  // One graph for the whole solve: the multiply is submitted against the
  // inversion's final job, so every job lives on the same cluster timeline
  // (no manual clock shifting) and can lease slots from the shared pool.
  OwnedGraph run(*this, options, input_path);
  Result inv = invert_order(run.graph, input_path, run.n, options);

  std::vector<std::string> control_files;
  for (int j = 0; j < cluster_->size(); ++j) {
    control_files.push_back(
        dfs::join(options.work_dir, "MapInput/A." + std::to_string(j)));
  }
  SolveResult result;
  result.x = mapreduce_multiply(&run.graph, fs_, cluster_->size(),
                                inv.inverse, b, options.work_dir,
                                control_files, options.multiply,
                                inv.final_job, &result.multiply_plan);
  run.graph.run_all();
  result.report = inv.report;
  result.report.sim_seconds = run.graph.total_sim_seconds();
  result.report.io = run.graph.total_io();
  result.report.jobs = run.graph.job_count();
  result.report.failures_recovered = run.graph.failures_recovered();
  result.jobs = run.graph.jobs();
  result.master_spans = run.graph.master_spans();
  return result;
}

}  // namespace mri::core

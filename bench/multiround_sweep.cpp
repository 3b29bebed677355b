// Multi-round multiply sweep: the space-round tradeoff behind
// --multiply-strategy multiround (after the replication-parameterized
// schemes of arXiv:1111.2228 / 1408.2858).
//
// Sweeps the replication factor r at fixed m0 and records, per point, the
// round count, shuffle bytes moved through the pipeline, the peak per-task
// operand footprint from the MultiplyPlan, and the residual against the
// block-wrap product. Emits BENCH_pr9.json (see --out) and exits non-zero
// unless the tradeoff is monotone — rounds and total bytes fall as r grows
// while peak task bytes rise — over at least three points, the last of
// which (r = m0) runs a single round.
#include "harness.hpp"

#include <sstream>
#include <vector>

#include "core/multiply_strategy.hpp"

using namespace mri;
using namespace mri::bench;

namespace {

struct SweepFixture {
  explicit SweepFixture(int m0)
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

struct SweepPoint {
  int replication = 0;
  core::MultiplyPlan plan;
  int jobs = 0;
  IoStats io;
  double max_abs_diff_vs_wrap = 0.0;
  double sim_seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const int m0 = cli.get_int("m0", 8);
  const Index n = cli.get_int("n", 128);
  const std::string out = cli.get_string("out", "BENCH_pr9.json");
  print_header("Multi-round multiply: replication vs rounds (ext.)", "§6.2");

  const Matrix a = random_matrix(n, n, /*seed=*/1, -1, 1);
  const Matrix b = random_matrix(n, n, /*seed=*/2, -1, 1);
  const Matrix exact = matmul(a, b);

  // Block-wrap baseline: one job, every reducer reads full operand slabs.
  SweepFixture wrap_fx(m0);
  core::MultiplyPlan wrap_plan;
  const Matrix wrap =
      core::mapreduce_multiply(&wrap_fx.pipeline, &wrap_fx.fs, m0, a, b,
                               "/Root", wrap_fx.control_files, {}, {},
                               &wrap_plan);
  const IoStats wrap_io = wrap_fx.pipeline.total_io();
  const double wrap_residual = max_abs_diff(wrap, exact);

  // Sweep replication factors: 1 (fully chained) .. m0 (one wrap-like round).
  std::vector<int> factors;
  for (int r = 1; r <= m0; r *= 2) factors.push_back(r);
  if (factors.back() != m0) factors.push_back(m0);

  std::vector<SweepPoint> points;
  for (const int r : factors) {
    SweepFixture fx(m0);
    SweepPoint p;
    p.replication = r;
    const Matrix c = core::mapreduce_multiply(
        &fx.pipeline, &fx.fs, m0, a, b, "/Root", fx.control_files,
        core::MultiplyStrategyOptions{core::MultiplyStrategyKind::kMultiRound,
                                      r},
        {}, &p.plan);
    p.jobs = fx.pipeline.job_count();
    p.io = fx.pipeline.total_io();
    p.max_abs_diff_vs_wrap = max_abs_diff(c, wrap);
    for (const mr::JobResult& j : fx.pipeline.jobs())
      p.sim_seconds += j.sim_seconds;
    points.push_back(p);
  }

  TextTable table({"r", "Rounds", "Jobs", "Read", "Written", "Peak task",
                   "vs wrap"});
  for (const SweepPoint& p : points) {
    std::ostringstream diff;
    diff << p.max_abs_diff_vs_wrap;
    table.add_row({std::to_string(p.replication), std::to_string(p.plan.rounds),
                   std::to_string(p.jobs), format_bytes(p.io.bytes_read),
                   format_bytes(p.io.bytes_written),
                   format_bytes(p.plan.peak_task_bytes), diff.str()});
  }
  table.print();
  std::printf("\nwrap baseline: 1 job, %s read, %s written, peak task %s, "
              "residual %.3g\n",
              format_bytes(wrap_io.bytes_read).c_str(),
              format_bytes(wrap_io.bytes_written).c_str(),
              format_bytes(wrap_plan.peak_task_bytes).c_str(), wrap_residual);

  // Headline checks; the exit code is their conjunction.
  const bool sweep_ok = points.size() >= 3 && points.back().plan.rounds == 1;
  bool rounds_monotone = true, bytes_monotone = true, peak_monotone = true;
  bool residuals_ok = wrap_residual < 1e-10;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].max_abs_diff_vs_wrap > 1e-11) residuals_ok = false;
    if (i == 0) continue;
    const std::uint64_t total =
        points[i].io.bytes_read + points[i].io.bytes_written;
    const std::uint64_t prev_total =
        points[i - 1].io.bytes_read + points[i - 1].io.bytes_written;
    rounds_monotone &= points[i].plan.rounds < points[i - 1].plan.rounds;
    bytes_monotone &= total < prev_total;
    peak_monotone &=
        points[i].plan.peak_task_bytes >= points[i - 1].plan.peak_task_bytes;
  }
  std::printf("rounds monotone down: %s, shuffle bytes monotone down: %s, "
              "peak task bytes monotone up: %s, residuals ok: %s, >= 3 "
              "points ending in one round: %s\n",
              rounds_monotone ? "yes" : "NO", bytes_monotone ? "yes" : "NO",
              peak_monotone ? "yes" : "NO", residuals_ok ? "yes" : "NO",
              sweep_ok ? "yes" : "NO");

  const auto bytes_fields = [](JsonWriter& w, const IoStats& io) {
    w.field("bytes_read", io.bytes_read)
        .field("bytes_written", io.bytes_written)
        .field("total_bytes", io.bytes_read + io.bytes_written);
  };
  JsonWriter json(17);
  json.begin_object()
      .field("bench", "multiround_sweep")
      .field("n", n)
      .field("m0", m0)
      .begin_object("wrap")
      .field("jobs", 1)
      .field("rounds", wrap_plan.rounds)
      .field("grid_rows", wrap_plan.grid_rows)
      .field("grid_cols", wrap_plan.grid_cols);
  bytes_fields(json, wrap_io);
  json.field("peak_task_bytes", wrap_plan.peak_task_bytes)
      .field("residual", wrap_residual)
      .end_object()
      .begin_array("sweep");
  for (const SweepPoint& p : points) {
    json.begin_object()
        .field("replication", p.replication)
        .field("rounds", p.plan.rounds)
        .field("jobs", p.jobs)
        .field("segments", p.plan.segments);
    bytes_fields(json, p.io);
    json.field("peak_task_bytes", p.plan.peak_task_bytes)
        .field("sim_seconds", p.sim_seconds)
        .field("max_abs_diff_vs_wrap", p.max_abs_diff_vs_wrap)
        .end_object();
  }
  json.end_array()
      .begin_object("headline")
      .field("rounds_monotone_down", rounds_monotone)
      .field("total_bytes_monotone_down", bytes_monotone)
      .field("peak_task_bytes_monotone_up", peak_monotone)
      .field("residuals_ok", residuals_ok)
      .end_object()
      .end_object();
  write_json_file(out, json.str());
  std::printf("results written to %s\n", out.c_str());

  return sweep_ok && rounds_monotone && bytes_monotone && peak_monotone &&
                 residuals_ok
             ? 0
             : 1;
}

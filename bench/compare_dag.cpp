// DAG executor benchmark: the sequential pipeline vs the overlapped final
// stage (§5.4) on the Figure 6 configuration (M1, scaled).
//
// The inversion pipeline is almost entirely a dependency chain (Algorithm 2
// is sequential), but the final stage's two triangular inversions L⁻¹ and
// U⁻¹ are independent: submitted as a {invert-l, invert-u} -> invert-mul
// diamond they share the cluster's map slots through the JobGraph slot
// pool, so the makespan drops below the serial sum of the job times.
//
// Emits a machine-readable comparison (default BENCH_pr2.json; --out PATH).
#include "harness.hpp"

using namespace mri;
using namespace mri::bench;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const double scale = cli.get_double("scale", 40.0);
  const int nodes = static_cast<int>(cli.get_int("nodes", 16));
  const std::string out = cli.get_string("out", "BENCH_pr2.json");
  print_header("DAG executor: sequential pipeline vs overlapped final stage",
               "the Figure 6 configuration");

  const ScaledSetup setup = scaled_setup(kM1, scale);
  std::printf("M1 scaled 1/%.0f -> order %lld, nb %lld, %d nodes\n\n", scale,
              static_cast<long long>(setup.n),
              static_cast<long long>(setup.nb), nodes);

  const MrRun seq = run_mapreduce(setup, nodes, {}, /*seed=*/1);
  MRI_CHECK_MSG(seq.residual < 1e-5, "sequential run accuracy check failed");

  core::InversionOptions dag_opts;
  dag_opts.overlap_final_stage = true;
  const MrRun dag = run_mapreduce(setup, nodes, dag_opts, /*seed=*/1);
  MRI_CHECK_MSG(dag.residual < 1e-5, "DAG run accuracy check failed");

  // What a one-job-at-a-time Hadoop 1.x master would take for the DAG run's
  // job set: the serial sum of job times plus the master-node work.
  double serial_sum = dag.result.report.master_seconds;
  for (const mr::JobResult& job : dag.result.jobs) {
    serial_sum += job.sim_seconds;
  }

  const double seq_s = seq.result.report.sim_seconds;
  const double dag_s = dag.result.report.sim_seconds;
  TextTable table({"Pipeline", "Jobs", "Sim (s)", "Paper-scale (min)"});
  table.add_row({"sequential", cell_int(seq.result.report.jobs),
                 cell(seq_s, 3), cell(to_paper_seconds(seq_s, scale) / 60.0, 1)});
  table.add_row({"DAG overlap", cell_int(dag.result.report.jobs),
                 cell(dag_s, 3), cell(to_paper_seconds(dag_s, scale) / 60.0, 1)});
  table.add_row({"serial sum of DAG jobs", cell_int(dag.result.report.jobs),
                 cell(serial_sum, 3),
                 cell(to_paper_seconds(serial_sum, scale) / 60.0, 1)});
  table.print();

  std::printf("\nmakespan vs sequential pipeline : %.3fx\n", seq_s / dag_s);
  std::printf("makespan vs serial sum          : %.3fx\n", serial_sum / dag_s);
  std::printf("overlap makespan below serial sum: %s\n",
              dag_s < serial_sum ? "yes" : "NO (unexpected)");

  JsonWriter json(17);
  json.begin_object()
      .begin_object("config")
      .field("matrix", "M1")
      .field("order", setup.n)
      .field("nb", setup.nb)
      .field("scale", scale)
      .field("nodes", nodes)
      .end_object()
      .field("sequential_seconds", seq_s)
      .field("dag_seconds", dag_s)
      .field("serial_sum_seconds", serial_sum)
      .field("sequential_jobs", seq.result.report.jobs)
      .field("dag_jobs", dag.result.report.jobs)
      .field("speedup_vs_sequential", seq_s / dag_s)
      .field("speedup_vs_serial_sum", serial_sum / dag_s)
      .end_object();
  write_json_file(out, json.str());
  std::printf("comparison written to %s\n", out.c_str());

  return dag_s < serial_sum ? 0 : 1;
}

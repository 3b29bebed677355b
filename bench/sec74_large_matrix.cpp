// §7.4: scaling to the very large matrix M4 (order 102400).
//
// Paper's numbers to reproduce (shape, not absolutes):
//  * 128 large instances, no failure:   ~5 h;
//  * 128 large instances, one mapper inverting a triangular matrix failed
//    and only restarted when another mapper finished: ~8 h (~1.6x);
//  * 64 medium instances:               ~15 h (~3x the large-instance run);
//  * >500 GB written, >20 TB read across the 33-job pipeline.
//
// Exits 1 when the clean run is not the 33-job pipeline of Table 3.
#include "harness.hpp"

using namespace mri;
using namespace mri::bench;

namespace {

struct Run {
  const char* label;
  double paper_hours;
  int jobs;
  int failures;
  IoStats io;  // scaled io; multiply bytes by S² for paper scale
};

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const double scale = cli.get_double("scale", 64.0);
  print_header("§7.4 scaling to the very large matrix M4", "§7.4");

  const double s2 = scale * scale;
  std::vector<Run> runs;

  // 128 large instances = 256 medium-grade cores; the paper schedules one
  // worker per core, so every map slot is busy and a failed mapper's
  // re-execution must wait for another mapper to finish (§7.4). Model the
  // cores as 256 single-slot workers with large-instance disk/network and
  // variance.
  CostModel large_cores = CostModel::ec2_large();
  large_cores.flops_per_second /= 2.0;  // per core, not per instance
  large_cores.slots_per_node = 1;
  const int large_workers = 256;

  // --- 128 large instances, clean run --------------------------------------
  {
    const ScaledSetup setup = scaled_setup(kM4, scale, large_cores);
    const MrRun r = run_mapreduce(setup, large_workers, {}, 1, nullptr, false);
    runs.push_back(Run{"128 large, no failure", r.paper_seconds / 3600.0,
                       r.result.report.jobs,
                       r.result.report.failures_recovered,
                       r.result.report.io});
  }

  // --- 128 large instances, one failed mapper in the final job -------------
  {
    const ScaledSetup setup = scaled_setup(kM4, scale, large_cores);
    FailureInjector failures;
    // "one mapper computing the inverse of a triangular matrix failed".
    failures.add_rule(FailureRule{"invert", /*task=*/5, /*attempt=*/0, true});
    const MrRun r =
        run_mapreduce(setup, large_workers, {}, 1, &failures, false);
    runs.push_back(Run{"128 large, one mapper fails",
                       r.paper_seconds / 3600.0, r.result.report.jobs,
                       r.result.report.failures_recovered,
                       r.result.report.io});
  }

  // --- 64 medium instances ---------------------------------------------------
  {
    const ScaledSetup setup = scaled_setup(kM4, scale, CostModel::ec2_medium());
    const MrRun r = run_mapreduce(setup, 64, {}, 1, nullptr, false);
    runs.push_back(Run{"64 medium, no failure", r.paper_seconds / 3600.0,
                       r.result.report.jobs,
                       r.result.report.failures_recovered,
                       r.result.report.io});
  }

  TextTable table({"Configuration", "Paper (h)", "Measured (h)", "Jobs",
                   "Failures recovered"});
  const double paper_hours[] = {5.0, 8.0, 15.0};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    table.add_row({runs[i].label, cell(paper_hours[i], 0),
                   cell(runs[i].paper_hours, 1), cell_int(runs[i].jobs),
                   cell_int(runs[i].failures)});
  }
  table.print();

  const double failure_stretch = runs[1].paper_hours / runs[0].paper_hours;
  const double medium_stretch = runs[2].paper_hours / runs[0].paper_hours;
  std::printf("\nfailure run / clean run : %.2fx (paper: 8/5 = 1.6x)\n",
              failure_stretch);
  std::printf("64 medium / 128 large   : %.2fx (paper: 15/5 = 3.0x)\n",
              medium_stretch);

  // I/O volumes at paper scale (bytes shrink by S² under uniform scaling).
  const auto written = static_cast<std::uint64_t>(
      static_cast<double>(runs[0].io.bytes_written +
                          runs[0].io.bytes_replicated) *
      s2);
  const auto read =
      static_cast<std::uint64_t>(static_cast<double>(runs[0].io.bytes_read) * s2);
  std::printf("data written (incl. replication): %s (paper: >500 GB)\n",
              format_bytes(written).c_str());
  std::printf("data read                       : %s (paper: >20 TB)\n",
              format_bytes(read).c_str());
  const bool table3_pipeline = runs[0].jobs == 33;
  std::printf("33-job pipeline                 : %s\n",
              table3_pipeline ? "yes (matches Table 3)" : "NO");
  return table3_pipeline ? 0 : 1;
}

// Extension (§8 future work): "implement our matrix inversion technique on
// the Spark system... we expect that implementing our algorithm in Spark
// would improve performance by reducing read I/O."
//
// The spin engine keeps intermediates on the DFS's in-memory tier (single
// unreplicated copy, memory-bandwidth writes — fault tolerance by lineage,
// like RDDs); we run the identical pipeline on both engines.
#include "harness.hpp"

using namespace mri;
using namespace mri::bench;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const double scale = cli.get_double("scale", 32.0);
  const auto node_counts = cli.get_int_list("nodes", {4, 8, 16, 32, 64});
  print_header("Extension: Spark-style in-memory intermediates",
               "§8 (future work)");

  const ScaledSetup setup = scaled_setup(kM5, scale);
  std::printf("matrix M5 scaled to order %lld; identical pipeline, two "
              "storage tiers\n\n",
              static_cast<long long>(setup.n));

  TextTable table({"Nodes", "HDFS tier (min)", "memory tier (min)", "speedup",
                   "disk GB written (HDFS)", "disk GB written (mem)"});

  for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
    const int nodes = static_cast<int>(node_counts[ni]);
    core::InversionOptions hadoop;
    const MrRun disk = run_mapreduce(setup, nodes, hadoop, 1, nullptr, ni == 0);
    if (ni == 0) MRI_CHECK_MSG(disk.residual < 1e-5, "accuracy check failed");

    core::InversionOptions spin;
    spin.engine = core::EngineKind::kSpin;
    const MrRun mem = run_mapreduce(setup, nodes, spin, 1, nullptr, false);

    const double s2 = scale * scale;
    const auto disk_gb = [&](const IoStats& io) {
      return static_cast<double>(io.bytes_written + io.bytes_replicated) *
             s2 / 1e9;
    };
    table.add_row({cell_int(nodes), cell(disk.paper_seconds / 60.0, 1),
                   cell(mem.paper_seconds / 60.0, 1),
                   cell(disk.paper_seconds / mem.paper_seconds, 2),
                   cell(disk_gb(disk.result.report.io), 1),
                   cell(disk_gb(mem.result.report.io), 1)});
  }
  table.print();

  std::printf(
      "\nAs the paper predicts, the pipeline is unchanged (same job count, "
      "same math) and the win comes from eliminating replicated\nHDFS "
      "writes of intermediates; reads remain remote fetches. Fault "
      "tolerance shifts from replication to lineage (recompute), which\n"
      "this simulator does not charge until a failure occurs.\n");
  return 0;
}

// Figure 7: effect of the two I/O optimizations on M5 — the ratio of the
// unoptimized to the optimized running time, for 4..64 nodes.
//
// Paper's observations to reproduce:
//  * separate intermediate files: up to ~1.3x slower without (the serial
//    master-side combination is constant work, so the penalty grows as the
//    parallel part shrinks — i.e. with the node count);
//  * block wrap: the benefit grows with the number of nodes (naive multiply
//    reads (m0+1)n², wrapped (f1+f2)n²).
//
// Exits 1 when one of the two claims printed at the end does not hold.
#include "harness.hpp"

using namespace mri;
using namespace mri::bench;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const double scale = cli.get_double("scale", 32.0);
  const auto node_counts = cli.get_int_list("nodes", {4, 8, 16, 32, 64});
  print_header("Figure 7: impact of the I/O optimizations (matrix M5)",
               "Figure 7");

  const ScaledSetup setup = scaled_setup(kM5, scale);
  std::printf("M5 scaled 1/%.0f -> order %lld, nb %lld\n\n", scale,
              static_cast<long long>(setup.n),
              static_cast<long long>(setup.nb));

  TextTable table({"Nodes", "T_opt (min)", "no sep. files (ratio)",
                   "no block wrap (ratio)"});

  bool sep_grows = true, wrap_grows = true;
  double prev_sep = 0.0, prev_wrap = 0.0;
  for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
    const int nodes = static_cast<int>(node_counts[ni]);
    core::InversionOptions optimized;
    const MrRun base =
        run_mapreduce(setup, nodes, optimized, 1, nullptr, ni == 0);
    if (ni == 0) MRI_CHECK_MSG(base.residual < 1e-5, "accuracy check failed");
    export_run_artifacts(cli, base);  // --trace-out / --report-out

    core::InversionOptions no_sep;
    no_sep.separate_intermediate_files = false;
    const MrRun without_sep =
        run_mapreduce(setup, nodes, no_sep, 1, nullptr, false);

    core::InversionOptions no_wrap;
    no_wrap.block_wrap = false;
    const MrRun without_wrap =
        run_mapreduce(setup, nodes, no_wrap, 1, nullptr, false);

    const double sep_ratio = without_sep.paper_seconds / base.paper_seconds;
    const double wrap_ratio = without_wrap.paper_seconds / base.paper_seconds;
    table.add_row({cell_int(nodes), cell(base.paper_seconds / 60.0, 1),
                   cell(sep_ratio, 3), cell(wrap_ratio, 3)});
    if (ni > 0) {
      sep_grows = sep_grows && sep_ratio >= prev_sep - 0.02;
      wrap_grows = wrap_grows && wrap_ratio >= prev_wrap - 0.02;
    }
    prev_sep = sep_ratio;
    prev_wrap = wrap_ratio;
  }
  table.print();

  std::printf("\nseparate-files penalty grows with nodes: %s\n",
              sep_grows ? "yes (as in the paper)" : "NO (unexpected)");
  std::printf("block-wrap benefit grows with nodes:     %s\n",
              wrap_grows ? "yes (as in the paper)" : "NO (unexpected)");
  return sep_grows && wrap_grows ? 0 : 1;
}

// Figure 8: the ratio of ScaLAPACK's running time to ours, for M1–M3 over
// 1..64 nodes.
//
// Paper's observations to reproduce:
//  * at small scale ScaLAPACK is somewhat faster (ratio < 1) — the price of
//    MapReduce's job-launch overhead and HDFS round-trips;
//  * the ratio grows with the node count and with the matrix size, crossing
//    1 for the larger matrices at high node counts: ScaLAPACK's per-node
//    transfer volume (Θ(n²), Tables 1-2) and its panel critical path stop
//    scaling while our pipeline keeps shrinking.
//
// Exits 1 when one of the three claims printed at the end does not hold.
#include "harness.hpp"

using namespace mri;
using namespace mri::bench;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const double scale = cli.get_double("scale", 40.0);
  const auto node_counts = cli.get_int_list("nodes", {1, 2, 4, 8, 16, 32, 64});
  print_header("Figure 8: ScaLAPACK running time / our running time",
               "Figure 8 / §7.5");

  const PaperMatrix matrices[] = {kM1, kM2, kM3};
  std::printf("matrices scaled 1/%.0f; ratio > 1 means our algorithm wins\n\n",
              scale);

  TextTable table({"Nodes", "M1 ratio", "M2 ratio", "M3 ratio"});
  std::vector<std::vector<double>> ratios(node_counts.size());

  std::vector<std::vector<double>> per_matrix(3);
  for (std::size_t mi = 0; mi < 3; ++mi) {
    const ScaledSetup setup = scaled_setup(matrices[mi], scale);
    for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
      const int nodes = static_cast<int>(node_counts[ni]);
      const MrRun ours =
          run_mapreduce(setup, nodes, {}, mi + 1, nullptr, ni == 0);
      if (ni == 0) MRI_CHECK_MSG(ours.residual < 1e-5, "accuracy failed");
      const ScalRun theirs = run_scalapack(setup, nodes, mi + 1);
      if (ni == 0)
        MRI_CHECK_MSG(theirs.residual < 1e-5, "baseline accuracy failed");
      per_matrix[mi].push_back(theirs.paper_seconds / ours.paper_seconds);
      std::fprintf(stderr, "  %s @ %d nodes: ours %.1f min, scal %.1f min\n",
                   matrices[mi].name, nodes, ours.paper_seconds / 60.0,
                   theirs.paper_seconds / 60.0);
    }
  }

  for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
    table.add_row({cell_int(node_counts[ni]), cell(per_matrix[0][ni], 2),
                   cell(per_matrix[1][ni], 2), cell(per_matrix[2][ni], 2)});
  }
  table.print();

  const std::size_t last = node_counts.size() - 1;
  const bool grows = per_matrix[2][last] > per_matrix[2][0];
  const bool larger = per_matrix[2][last] >= per_matrix[0][last];
  const bool overtakes = per_matrix[2][last] >= 1.0;
  const auto verdict = [](bool held) {
    return held ? "yes (as in the paper)" : "NO (unexpected)";
  };
  std::printf("\nratio grows with node count (M3): %s\n", verdict(grows));
  std::printf("larger matrix => larger ratio at %lld nodes: %s\n",
              static_cast<long long>(node_counts[last]), verdict(larger));
  std::printf("our algorithm overtakes ScaLAPACK at scale: %s\n",
              verdict(overtakes));
  return grows && larger && overtakes ? 0 : 1;
}

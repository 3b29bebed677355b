// Figure 6: strong scalability — running time vs number of nodes for the
// matrices M1, M2, M3, against the ideal T(n) = T(1)/n line.
//
// The paper's observations to reproduce:
//  * near-ideal strong scaling, with a deviation at high node counts caused
//    by the constant MapReduce job-launch time;
//  * the larger the matrix, the closer to ideal (launch overhead amortizes).
//
// Exits 1 when the claim printed at the end does not hold.
#include "harness.hpp"

using namespace mri;
using namespace mri::bench;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const double scale = cli.get_double("scale", 40.0);
  const auto node_counts =
      cli.get_int_list("nodes", {1, 2, 4, 8, 16, 32, 64});
  print_header("Figure 6: strong scalability of the MapReduce inversion",
               "Figure 6");

  std::printf("matrices scaled 1/%.0f (M1 -> %lld, M2 -> %lld, M3 -> %lld; "
              "nb -> %lld); times quoted at paper scale\n\n",
              scale, static_cast<long long>(kM1.order / scale),
              static_cast<long long>(kM2.order / scale),
              static_cast<long long>(kM3.order / scale),
              static_cast<long long>(kPaperNb / scale));

  const PaperMatrix matrices[] = {kM1, kM2, kM3};
  TextTable table({"Nodes", "M1 (min)", "M2 (min)", "M3 (min)",
                   "ideal M3 (min)", "M3/ideal"});

  std::vector<std::vector<double>> minutes(3);
  for (std::size_t mi = 0; mi < 3; ++mi) {
    const ScaledSetup setup = scaled_setup(matrices[mi], scale);
    for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
      const bool verify = ni == 0;  // O(n³) residual check once per series
      const MrRun run = run_mapreduce(setup, static_cast<int>(node_counts[ni]),
                                      {}, /*seed=*/mi + 1, nullptr, verify);
      if (verify) MRI_CHECK_MSG(run.residual < 1e-5, "accuracy check failed");
      export_run_artifacts(cli, run);  // --trace-out / --report-out
      minutes[mi].push_back(run.paper_seconds / 60.0);
      std::fprintf(stderr, "  %s @ %lld nodes: %.1f paper-min\n",
                   matrices[mi].name,
                   static_cast<long long>(node_counts[ni]),
                   minutes[mi].back());
    }
  }

  for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
    const double ideal_m3 =
        minutes[2][0] * static_cast<double>(node_counts[0]) /
        static_cast<double>(node_counts[ni]);
    table.add_row({cell_int(node_counts[ni]), cell(minutes[0][ni], 1),
                   cell(minutes[1][ni], 1), cell(minutes[2][ni], 1),
                   cell(ideal_m3, 1), cell(minutes[2][ni] / ideal_m3, 2)});
  }
  table.print();

  // The paper's two qualitative claims, checked numerically.
  const std::size_t last = node_counts.size() - 1;
  const double speedup_m1 = minutes[0][0] / minutes[0][last];
  const double speedup_m3 = minutes[2][0] / minutes[2][last];
  const double span = static_cast<double>(node_counts[last]) /
                      static_cast<double>(node_counts[0]);
  std::printf("\nspeedup at %lldx more nodes: M1 %.1fx, M3 %.1fx (ideal "
              "%.0fx)\n",
              static_cast<long long>(span), speedup_m1, speedup_m3, span);
  const bool larger_scales_better = speedup_m3 >= speedup_m1;
  std::printf("larger matrices scale better: %s\n",
              larger_scales_better ? "yes (as in the paper)"
                                   : "NO (unexpected)");
  return larger_scales_better ? 0 : 1;
}

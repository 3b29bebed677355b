// Flow-level network model: oversubscription sweep and rack-aware placement.
//
// The paper's shuffle-bound regions (Fig 6-8) were measured on EC2, where
// the fabric between racks is oversubscribed and shuffle cost is set by
// link contention rather than a per-node scalar bandwidth. This bench pins
// down the three properties the topology-aware model must have:
//
//   flat_identical — attaching a flat Topology is a no-op: the run report
//                    is STRING-IDENTICAL to a run with no topology at all
//                    (the scalar code path is untouched).
//   oversub sweep  — on a racked fabric with hash (rack-oblivious)
//                    placement, squeezing the rack uplinks (1:1 -> 8:1)
//                    stretches the shuffle-heavy reduce phases; at >= 4:1
//                    the stretch must exceed 1.3x the scalar baseline.
//   rack_aware     — HDFS-style rack-aware placement + dispatch at the same
//                    4:1 oversubscription measurably shrinks both the
//                    cross-rack byte volume and the reduce-phase stretch.
//
// Emits BENCH_pr6.json (--out PATH). --probe runs a smaller matrix for the
// CI smoke step. Exit code = number of failed assertions.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace mri;
using namespace mri::bench;

namespace {

/// Sum of one phase's seconds over the run's jobs.
double phase_seconds(const MrRun& r, double mr::JobResult::*phase) {
  double total = 0.0;
  for (const mr::JobResult& job : r.result.jobs) total += job.*phase;
  return total;
}

/// The shuffle side: the reduce phases.
double reduce_seconds(const MrRun& r) {
  return phase_seconds(r, &mr::JobResult::reduce_phase_seconds);
}

double peak_uplink_utilization(const MrRun& r) {
  double peak = 0.0;
  for (const LinkReport& link : r.run_report.network.links) {
    if (link.name.find("rack") == 0 &&
        link.name.find(":up") != std::string::npos) {
      peak = std::max(peak, link.peak_utilization);
    }
  }
  return peak;
}

/// One inversion under `topo` (null = the scalar network), attached to both
/// the cluster (flow-level phase costing) and the DFS (placement and
/// transfer endpoints).
MrRun run_net(const ScaledSetup& s, int nodes,
              std::shared_ptr<const net::Topology> topo, bool verify) {
  WorldSpec world;
  world.topology = std::move(topo);
  return run_mapreduce(s, nodes, {}, /*seed=*/1, nullptr, verify, world);
}

std::shared_ptr<const net::Topology> make_topology(int nodes, double bandwidth,
                                                   int racks, double oversub,
                                                   bool rack_aware) {
  net::TopologyOptions o;
  o.kind = net::TopologyKind::kRacked;
  o.racks = racks;
  o.oversubscription = oversub;
  o.rack_aware_placement = rack_aware;
  return std::make_shared<const net::Topology>(nodes, bandwidth, o);
}

void network_fields(JsonWriter& json, const MrRun& r) {
  const NetworkReport& n = r.run_report.network;
  json.field("node_local_bytes", n.node_local_bytes)
      .field("rack_local_bytes", n.rack_local_bytes)
      .field("cross_rack_bytes", n.cross_rack_bytes)
      .field("rack_local_attempts", n.rack_local_attempts)
      .field("cross_rack_attempts", n.cross_rack_attempts)
      .field("peak_uplink_utilization", peak_uplink_utilization(r));
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const bool probe = cli.get_bool("probe", false);
  const int nodes = cli.get_int("nodes", 8);
  const int racks = cli.get_int("racks", 4);
  const double scale = cli.get_double("scale", 64.0);
  const std::string out = cli.get_string("out", "BENCH_pr6.json");
  const double residual_bound = 1e-8;

  print_header("flow-level network model: oversubscription and rack "
               "awareness", "§7.4");

  ScaledSetup setup = scaled_setup(probe ? kM5 : kM2, scale);
  // The EC2 presets model disk and network at the same rate, which buries
  // shuffle under compute at this scale. Contention questions are about a
  // fabric that is scarcer than local disks (the 1 GbE-vs-striped-disks
  // clusters the paper ran on), so the bench thins the network by a
  // configurable factor — applied identically to the scalar baseline and
  // every topology run, so stretches stay apples-to-apples.
  const double net_divisor = cli.get_double("net-divisor", 4.0);
  setup.model.network_bandwidth /= net_divisor;
  std::printf("%s at 1/%.0f scale: order %lld, nb %lld, %d nodes, %d racks%s\n\n",
              probe ? "M5" : "M2", scale, static_cast<long long>(setup.n),
              static_cast<long long>(setup.nb), nodes, racks,
              probe ? " (probe mode)" : "");

  // ---- 1. flat topology must reproduce the scalar model bit-identically ---
  const MrRun baseline = run_net(setup, nodes, nullptr, true);
  const MrRun flat = run_net(
      setup, nodes,
      std::make_shared<const net::Topology>(nodes,
                                            setup.model.network_bandwidth),
      false);
  const bool flat_identical = flat.report_json == baseline.report_json;
  const double baseline_seconds = baseline.result.report.sim_seconds;
  const double baseline_reduce = reduce_seconds(baseline);
  std::printf("scalar baseline : %.4f sim-s (%.2f paper-hours), residual "
              "%.2e\n", baseline_seconds, baseline.paper_hours(),
              baseline.residual);
  std::printf("flat topology   : report %s\n",
              flat_identical ? "bit-identical to baseline"
                             : "DIFFERS from baseline");

  // ---- 2. oversubscription sweep, hash placement --------------------------
  const std::vector<double> oversubs =
      probe ? std::vector<double>{1.0, 4.0}
            : std::vector<double>{1.0, 2.0, 4.0, 8.0};
  struct SweepPoint {
    double oversub = 0.0;
    MrRun run;
  };
  std::vector<SweepPoint> sweep;
  std::printf("\noversubscription sweep (rack-oblivious hash placement):\n");
  for (double oversub : oversubs) {
    SweepPoint p;
    p.oversub = oversub;
    p.run = run_net(setup, nodes,
                    make_topology(nodes, setup.model.network_bandwidth, racks,
                                  oversub, /*rack_aware=*/false),
                    false);
    const double seconds = p.run.result.report.sim_seconds;
    std::printf("  %3.0f:1 -> shuffle %.4f s (%.2fx), total %.4f s (%.2fx), "
                "peak uplink %.0f%%\n",
                oversub, reduce_seconds(p.run),
                reduce_seconds(p.run) / baseline_reduce, seconds,
                seconds / baseline_seconds,
                100.0 * peak_uplink_utilization(p.run));
    sweep.push_back(std::move(p));
  }
  const SweepPoint& contended =
      *std::find_if(sweep.begin(), sweep.end(),
                    [](const SweepPoint& p) { return p.oversub == 4.0; });
  const NetworkReport& contended_net = contended.run.run_report.network;
  const double stretch4 = reduce_seconds(contended.run) / baseline_reduce;
  const bool stretch_ok = stretch4 >= 1.3;

  // The sweep must be monotone in spirit: the tightest fabric is at least
  // as slow as the non-blocking one.
  const bool sweep_ordered =
      reduce_seconds(sweep.back().run) >= reduce_seconds(sweep.front().run);

  // ---- 3. rack-aware placement at the contended point ----------------------
  const MrRun aware = run_net(
      setup, nodes,
      make_topology(nodes, setup.model.network_bandwidth, racks, 4.0,
                    /*rack_aware=*/true),
      true);
  const NetworkReport& aware_net = aware.run_report.network;
  const double aware_reduce = reduce_seconds(aware);
  const double stretch4_aware = aware_reduce / baseline_reduce;
  std::printf("\nrack-aware @ 4:1 -> shuffle %.4f s (%.2fx vs %.2fx "
              "oblivious), cross-rack %.1f MB vs %.1f MB\n",
              aware_reduce, stretch4_aware, stretch4,
              static_cast<double>(aware_net.cross_rack_bytes) / 1e6,
              static_cast<double>(contended_net.cross_rack_bytes) / 1e6);
  const bool aware_reduces_stretch =
      aware_reduce < reduce_seconds(contended.run);
  const bool aware_reduces_bytes =
      aware_net.cross_rack_bytes < contended_net.cross_rack_bytes;
  const bool residual_ok = baseline.residual < residual_bound &&
                           aware.residual < residual_bound;
  const bool counters_ok = contended_net.cross_rack_bytes > 0 &&
                           aware_net.node_local_bytes > 0 &&
                           peak_uplink_utilization(contended.run) > 0.0;

  std::printf("\nflat reproduces scalar    : %s\n",
              flat_identical ? "yes" : "NO");
  std::printf("stretch @ 4:1 >= 1.3x     : %s (%.2fx)\n",
              stretch_ok ? "yes" : "NO", stretch4);
  std::printf("rack-aware cuts stretch   : %s (%.2fx -> %.2fx)\n",
              aware_reduces_stretch ? "yes" : "NO", stretch4, stretch4_aware);
  std::printf("rack-aware cuts x-rack B  : %s\n",
              aware_reduces_bytes ? "yes" : "NO");
  std::printf("residuals under %.0e    : %s\n", residual_bound,
              residual_ok ? "yes" : "NO");
  std::printf("locality counters sane    : %s\n", counters_ok ? "yes" : "NO");

  JsonWriter json(17);
  json.begin_object()
      .begin_object("config")
      .field("matrix", probe ? "M5" : "M2")
      .field("order", setup.n)
      .field("nb", setup.nb)
      .field("nodes", nodes)
      .field("racks", racks)
      .field("scale", scale)
      .field("probe", probe)
      .end_object()
      .begin_object("baseline")
      .field("sim_seconds", baseline_seconds)
      .field("map_seconds",
             phase_seconds(baseline, &mr::JobResult::map_phase_seconds))
      .field("reduce_seconds", baseline_reduce)
      .field("paper_hours", baseline.paper_hours())
      .field("residual", baseline.residual)
      .end_object()
      .field("flat_identical", flat_identical)
      .begin_array("sweep");
  for (const SweepPoint& p : sweep) {
    const double seconds = p.run.result.report.sim_seconds;
    json.begin_object()
        .field("oversubscription", p.oversub)
        .field("sim_seconds", seconds)
        .field("reduce_seconds", reduce_seconds(p.run))
        .field("shuffle_stretch", reduce_seconds(p.run) / baseline_reduce)
        .field("total_stretch", seconds / baseline_seconds);
    network_fields(json, p.run);
    json.end_object();
  }
  json.end_array()
      .begin_object("rack_aware")
      .field("oversubscription", 4)
      .field("sim_seconds", aware.result.report.sim_seconds)
      .field("reduce_seconds", aware_reduce)
      .field("shuffle_stretch", stretch4_aware)
      .field("residual", aware.residual);
  network_fields(json, aware);
  json.end_object()
      .begin_object("assertions")
      .field("flat_identical", flat_identical)
      .field("stretch_at_4x_over_1_3", stretch_ok)
      .field("sweep_ordered", sweep_ordered)
      .field("rack_aware_reduces_stretch", aware_reduces_stretch)
      .field("rack_aware_reduces_cross_rack_bytes", aware_reduces_bytes)
      .field("residuals_ok", residual_ok)
      .field("counters_ok", counters_ok)
      .end_object()
      .end_object();
  write_json_file(out, json.str());
  std::printf("\nresults written to %s\n", out.c_str());

  int failed = 0;
  for (bool ok : {flat_identical, stretch_ok, sweep_ordered,
                  aware_reduces_stretch, aware_reduces_bytes, residual_ok,
                  counters_ok}) {
    if (!ok) ++failed;
  }
  return failed;
}

// Shared harness for the table/figure reproduction binaries.
//
// Scaling: the paper's experiments run at orders 16384–102400 with nb=3200
// on up to 128 EC2 instances. We run the same pipelines on matrices shrunk
// by a linear factor S (default 32) with nb shrunk identically, under
// CostModel::scaled_down(S) — which makes the simulated time of the scaled
// run *exactly* 1/S³ of a full-scale run under the unscaled model (see
// sim/cost_model.hpp). Every bench therefore reports
//     paper-scale time = simulated seconds × S³
// and all curve shapes (scalability, ratios, crossovers) are preserved
// exactly. Real computation still runs, so every bench also verifies the
// §7.2 residual.
#pragma once

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/inverter.hpp"
#include "mapreduce/trace_export.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "net/topology.hpp"
#include "scalapack/invert.hpp"
#include "sim/chaos.hpp"

namespace mri::bench {

/// The paper's five evaluation matrices (Table 3).
struct PaperMatrix {
  const char* name;
  Index order;
};
inline constexpr PaperMatrix kM1{"M1", 20480};
inline constexpr PaperMatrix kM2{"M2", 32768};
inline constexpr PaperMatrix kM3{"M3", 40960};
inline constexpr PaperMatrix kM4{"M4", 102400};
inline constexpr PaperMatrix kM5{"M5", 16384};

inline constexpr Index kPaperNb = 3200;

struct ScaledSetup {
  double scale = 32.0;      // linear shrink factor S
  Index n = 0;              // scaled order
  Index nb = 0;             // scaled nb
  CostModel model;          // scaled cost model
};

inline ScaledSetup scaled_setup(const PaperMatrix& m, double scale,
                                CostModel base = CostModel::ec2_medium()) {
  ScaledSetup s;
  s.scale = scale;
  s.n = static_cast<Index>(static_cast<double>(m.order) / scale);
  s.nb = static_cast<Index>(static_cast<double>(kPaperNb) / scale);
  s.model = base.scaled_down(scale);
  return s;
}

inline double to_paper_seconds(double sim_seconds, double scale) {
  return sim_seconds * scale * scale * scale;
}

/// The fault and storage sweeps run M4 (the paper's §7.4 5h->8h story), or
/// M5 under --probe (seconds of real compute, the CI smoke step).
inline ScaledSetup sweep_setup(bool probe, double scale, int nodes) {
  const ScaledSetup s = scaled_setup(probe ? kM5 : kM4, scale);
  std::printf("%s at 1/%.0f scale: order %lld, nb %lld, %d nodes%s\n\n",
              probe ? "M5" : "M4", scale, static_cast<long long>(s.n),
              static_cast<long long>(s.nb), nodes,
              probe ? " (probe mode)" : "");
  return s;
}

/// Opens a sweep's bench file: the root object and its "config" member.
inline void begin_sweep_json(JsonWriter& json, bool probe,
                             const ScaledSetup& s, int nodes,
                             std::uint64_t seed) {
  json.begin_object()
      .begin_object("config")
      .field("matrix", probe ? "M5" : "M4")
      .field("order", s.n)
      .field("nb", s.nb)
      .field("nodes", nodes)
      .field("scale", s.scale)
      .field("seed", seed)
      .field("probe", probe)
      .end_object();
}

/// A run's fault schedule: chaos options plus explicit events. Faults are
/// also sampled when options.mtbf_seconds is set.
struct ChaosSchedule {
  ChaosOptions options;
  std::vector<ChaosEvent> events;
};

/// The simulated world beyond the cluster size and cost model. The default
/// is the paper's: a 3x-replicated DFS, no faults, the scalar network.
struct WorldSpec {
  dfs::DfsConfig dfs;
  ChaosSchedule chaos;
  /// Attached to both the cluster (flow-costed phases) and the DFS
  /// (placement, transfer endpoints); null keeps the scalar network.
  std::shared_ptr<const net::Topology> topology;
};

struct MrRun {
  /// False when an injected fault ended the run; `error` then says why and
  /// only `chaos_stats` is filled.
  bool completed = false;
  std::string error;
  core::MapReduceInverter::Result result;
  double residual = 0.0;
  double paper_seconds = 0.0;
  double paper_hours() const { return paper_seconds / 3600.0; }
  /// Aggregated report for this run, the source for the JSON exports
  /// below; `report_json`, its serialization, is what same-seed
  /// determinism checks compare.
  RunReport run_report;
  std::string report_json;
  RecoveryStats chaos_stats;
};

/// Runs the MapReduce pipeline on a fresh simulated world: cluster, DFS and
/// chaos engine, the engine always bound to the DFS with the cost model.
/// An exception from a run with scheduled faults is recorded in `error`;
/// without faults nothing may fail, so it propagates.
inline MrRun run_mapreduce(const ScaledSetup& s, int nodes,
                           core::InversionOptions opts = {},
                           std::uint64_t seed = 1,
                           FailureInjector* failures = nullptr,
                           bool verify = true, const WorldSpec& world = {}) {
  MetricsRegistry metrics;
  Cluster cluster(nodes, s.model);
  dfs::Dfs fs(nodes, world.dfs, &metrics);
  if (world.topology != nullptr) {
    cluster.set_topology(world.topology);
    fs.set_topology(world.topology);
  }
  // The engine's applied-event state is monotonic, so every run builds its
  // own; a fault-free run is just an empty schedule.
  ChaosEngine chaos(world.chaos.options);
  for (const ChaosEvent& event : world.chaos.events) chaos.add_event(event);
  if (world.chaos.options.mtbf_seconds > 0.0) chaos.sample_faults(nodes);
  fs.bind_chaos(&chaos, cluster.cost_model().network_bandwidth,
                &cluster.cost_model());
  ThreadPool pool(4);
  core::MapReduceInverter inverter(&cluster, &fs, &pool, failures, &metrics,
                                   &chaos);
  opts.nb = s.nb;
  const Matrix a = random_matrix(s.n, seed);
  MrRun run;
  try {
    run.result = inverter.invert(a, opts);
    run.completed = true;
  } catch (const std::exception& e) {
    if (!chaos.enabled()) throw;
    run.error = e.what();
  }
  run.chaos_stats = chaos.stats();
  if (!run.completed) return run;
  // The residual check is itself O(n³); sweep benches verify once per series.
  run.residual = verify ? inversion_residual(a, run.result.inverse) : 0.0;
  run.paper_seconds = to_paper_seconds(run.result.report.sim_seconds, s.scale);
  run.run_report = mr::build_run_report(
      run.result.jobs, cluster, &metrics, run.result.master_spans, &chaos,
      run.result.engine_active ? &run.result.engine_stats : nullptr, &fs);
  run.report_json = run_report_json(run.run_report);
  return run;
}

/// Picks a kill time inside a reduce window roughly `fraction` of the way
/// through a clean run: the dead node then holds completed map outputs (a
/// recompute wave is forced) and the remaining ~1-fraction of the run pays
/// the shrunken slot pool — together the paper's "restarted when another
/// mapper finished" stretch.
inline double pick_kill_time(const MrRun& clean, double fraction) {
  const double target = fraction * clean.result.report.sim_seconds;
  double best = -1.0;
  double best_distance = 0.0;
  for (const mr::JobResult& job : clean.result.jobs) {
    if (job.reduce_phase_seconds <= 0.0) continue;
    const double at =
        job.reduce_phase_start() + 0.25 * job.reduce_phase_seconds;
    const double distance = std::abs(at - target);
    if (best < 0.0 || distance < best_distance) {
      best = at;
      best_distance = distance;
    }
  }
  MRI_REQUIRE(best >= 0.0, "clean run has no job with a reduce phase");
  return best;
}

/// Honours the shared --trace-out / --report-out bench flags: writes the
/// run's Chrome trace / run-report JSON. Benches call this per run, so with
/// a sweep the file holds the last run that completed.
inline void export_run_artifacts(const CliOptions& cli, const MrRun& run) {
  const std::string trace = cli.get_string("trace-out", "");
  if (!trace.empty()) {
    write_json_file(trace, chrome_trace_json(run.run_report));
    std::fprintf(stderr, "  wrote %s\n", trace.c_str());
  }
  const std::string report = cli.get_string("report-out", "");
  if (!report.empty()) {
    write_json_file(report, run.report_json);
    std::fprintf(stderr, "  wrote %s\n", report.c_str());
  }
}

struct ScalRun {
  scalapack::InvertResult result;
  double residual = 0.0;
  double paper_seconds = 0.0;
};

/// Runs the ScaLAPACK-style baseline on a fresh simulated cluster. The
/// paper's 128x128 block size scales with S like everything else.
inline ScalRun run_scalapack(const ScaledSetup& s, int nodes,
                             std::uint64_t seed = 1) {
  Cluster cluster(nodes, s.model);
  scalapack::Options opts;
  opts.block_width = std::max<Index>(4, static_cast<Index>(128.0 / s.scale));
  const Matrix a = random_matrix(s.n, seed);
  ScalRun run;
  run.result = scalapack::invert(a, cluster, opts);
  run.residual = inversion_residual(a, run.result.inverse);
  run.paper_seconds = to_paper_seconds(run.result.report.sim_seconds, s.scale);
  return run;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n(reproducing %s of 'Scalable Matrix Inversion Using "
              "MapReduce', HPDC 2014)\n",
              title, paper_ref);
  std::printf("================================================================\n\n");
}

}  // namespace mri::bench

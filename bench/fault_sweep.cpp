// §7.4 fault tolerance under the chaos engine: node loss, re-replication,
// recompute waves.
//
// The paper's claim: one failed mapper stretched a 5-hour M4 inversion to
// 8 hours (~1.6x), yet the run completed with a correct inverse — the
// MapReduce recovery story ScaLAPACK/MPI cannot match. This bench replays
// that claim with whole-node faults instead of one ghost attempt:
//
//   single_kill — clean baseline, then the same inversion with one node
//                 killed mid-run (inside a job's reduce window, so the dead
//                 node's completed map outputs must be recomputed). Asserts
//                 the stretch lands in [1.2, 2.5] around the paper's 1.6x
//                 and the recovered inverse still meets the residual bound.
//   sweep       — MTBF-driven seeded fault sampling at increasing failure
//                 rates: recovery overhead vs. failure rate, including runs
//                 that legitimately die when too many nodes are lost.
//   unrecoverable — replication=1 DFS plus a node kill: every replica of
//                 the dead node's blocks is gone, so the run must fail
//                 fast with UnrecoverableBlock instead of hanging.
//   deterministic — two same-seed single-kill runs must produce
//                 bit-identical run reports.
//
// Emits BENCH_pr5.json (--out PATH). --probe runs the same scenarios on a
// small matrix for the CI smoke step.
#include "harness.hpp"

using namespace mri;
using namespace mri::bench;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const bool probe = cli.get_bool("probe", false);
  const int nodes = cli.get_int("nodes", 4);
  const double scale = cli.get_double("scale", 64.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("chaos-seed", 7));
  const std::string out = cli.get_string("out", "BENCH_pr5.json");
  const double residual_bound = 1e-8;  // §7.2: double precision stays ~1e-12

  print_header("§7.4 fault tolerance: node loss, re-replication, recovery",
               "§7.4");

  const ScaledSetup setup = sweep_setup(probe, scale, nodes);

  // ---- 1. single kill vs. clean baseline ----------------------------------
  const MrRun clean = run_mapreduce(setup, nodes, {}, seed);
  const double clean_seconds = clean.result.report.sim_seconds;
  std::printf("clean run      : %.2f paper-hours, residual %.2e\n",
              clean.paper_hours(), clean.residual);

  // Kill a worker ~40%% of the way through: the recompute wave plus the
  // remaining run on nodes-1 workers lands the stretch near the paper's
  // 8h/5h = 1.6x.
  const int kill_node = nodes - 1;
  const double kill_at = pick_kill_time(clean, 0.4);
  WorldSpec kill_world;
  kill_world.chaos.options.seed = seed;
  kill_world.chaos.events = {
      {ChaosEventKind::kKillNode, kill_at, kill_node, 1.0}};
  const MrRun killed =
      run_mapreduce(setup, nodes, {}, seed, nullptr, true, kill_world);
  MRI_REQUIRE(killed.completed,
              "single-kill run did not recover: " << killed.error);
  const RecoveryReport& recovery = killed.run_report.recovery;
  const RecoveryStats& repair = killed.chaos_stats;
  const double stretch = killed.paper_hours() / clean.paper_hours();
  std::printf("node %d killed @ %.4f sim-s: %.2f paper-hours (%.2fx), "
              "residual %.2e\n",
              kill_node, kill_at, killed.paper_hours(), stretch,
              killed.residual);
  std::printf("recovery       : %d task(s) recomputed, %d attempt(s) killed, "
              "%llu bytes re-replicated, %d block(s) lost\n",
              recovery.tasks_recomputed, recovery.attempts_killed,
              static_cast<unsigned long long>(repair.re_replicated_bytes),
              repair.blocks_lost);

  const bool stretch_ok = stretch >= 1.2 && stretch <= 2.5;
  const bool residual_ok =
      clean.residual < residual_bound && killed.residual < residual_bound;
  const bool recovery_ok = recovery.tasks_recomputed > 0 &&
                           repair.re_replicated_bytes > 0 &&
                           repair.blocks_lost == 0;

  // ---- 2. determinism: same seed, same schedule, same report --------------
  const MrRun killed2 =
      run_mapreduce(setup, nodes, {}, seed, nullptr, true, kill_world);
  const bool deterministic =
      killed2.completed && killed2.report_json == killed.report_json;
  std::printf("deterministic  : %s (same-seed reports %s)\n",
              deterministic ? "yes" : "NO",
              deterministic ? "bit-identical" : "DIFFER");

  // ---- 3. failure-rate sweep (MTBF-driven sampling) -----------------------
  // Per-node MTBF from "one failure expected per ~k clean runtimes" down to
  // "every node expected to fail once per run". High-rate points may
  // legitimately fail (too many nodes dead); that is part of the curve.
  const std::vector<double> mtbf_multipliers =
      probe ? std::vector<double>{8.0, 1.0}
            : std::vector<double>{8.0, 4.0, 2.0, 1.0};
  struct SweepPoint {
    double mtbf_sim = 0.0;
    MrRun run;
  };
  std::vector<SweepPoint> sweep;
  bool sweep_residuals_ok = true;
  std::printf("\nMTBF sweep (horizon = clean runtime %.4f sim-s):\n",
              clean_seconds);
  for (double multiplier : mtbf_multipliers) {
    SweepPoint point;
    point.mtbf_sim = multiplier * clean_seconds;
    WorldSpec sampled;
    sampled.chaos.options.seed = seed;
    sampled.chaos.options.mtbf_seconds = point.mtbf_sim;
    sampled.chaos.options.horizon_seconds = clean_seconds;
    sampled.chaos.options.degrade_fraction = 0.3;
    point.run = run_mapreduce(setup, nodes, {}, seed, nullptr, true, sampled);
    const MrRun& r = point.run;
    if (r.completed && r.residual >= residual_bound) sweep_residuals_ok = false;
    if (r.completed) {
      std::printf("  mtbf %4.1fx runtime: %d killed, %d degraded, %d "
                  "recomputed -> %.2f h (%.2fx), residual %.2e\n",
                  multiplier, r.chaos_stats.nodes_killed,
                  r.chaos_stats.nodes_degraded,
                  r.run_report.recovery.tasks_recomputed, r.paper_hours(),
                  r.paper_hours() / clean.paper_hours(), r.residual);
    } else {
      std::printf("  mtbf %4.1fx runtime: %d killed -> did not survive "
                  "(%s)\n",
                  multiplier, r.chaos_stats.nodes_killed,
                  r.error.substr(0, 60).c_str());
    }
    sweep.push_back(std::move(point));
  }
  // ---- 4. all replicas lost must fail fast --------------------------------
  // replication=1: the dead node's blocks have no surviving replica, so the
  // run must surface UnrecoverableBlock instead of hanging or fabricating
  // zeros.
  WorldSpec lost_world = kill_world;
  lost_world.dfs.replication = 1;
  const MrRun lost =
      run_mapreduce(setup, nodes, {}, seed, nullptr, false, lost_world);
  const bool failed_fast =
      !lost.completed &&
      lost.error.find("nrecoverable") != std::string::npos;
  std::printf("\nreplication=1 + kill: %s\n",
              failed_fast ? "failed fast with UnrecoverableBlock"
                          : "DID NOT fail as expected");

  std::printf("\nstretch in [1.2, 2.5]   : %s (%.2fx, paper 1.6x)\n",
              stretch_ok ? "yes" : "NO", stretch);
  std::printf("residuals under %.0e  : %s\n", residual_bound,
              residual_ok && sweep_residuals_ok ? "yes" : "NO");
  std::printf("recovery counters > 0   : %s\n", recovery_ok ? "yes" : "NO");

  JsonWriter json(17);
  begin_sweep_json(json, probe, setup, nodes, seed);
  json.begin_object("single_kill")
      .field("clean_hours", clean.paper_hours())
      .field("kill_hours", killed.paper_hours())
      .field("stretch", stretch)
      .field("kill_node", kill_node)
      .field("kill_at_sim_seconds", kill_at)
      .field("residual_clean", clean.residual)
      .field("residual_kill", killed.residual)
      .field("tasks_recomputed", recovery.tasks_recomputed)
      .field("attempts_killed", recovery.attempts_killed)
      .field("re_replicated_bytes", repair.re_replicated_bytes)
      .field("re_replicated_blocks", repair.re_replicated_blocks)
      .field("blocks_lost", repair.blocks_lost)
      .field("stretch_in_range", stretch_ok)
      .end_object()
      .begin_array("sweep");
  for (const SweepPoint& p : sweep) {
    json.begin_object()
        .field("mtbf_over_runtime", p.mtbf_sim / clean_seconds)
        .field("completed", p.run.completed)
        .field("nodes_killed", p.run.chaos_stats.nodes_killed)
        .field("nodes_degraded", p.run.chaos_stats.nodes_degraded)
        .field("tasks_recomputed", p.run.run_report.recovery.tasks_recomputed)
        .field("re_replicated_bytes", p.run.chaos_stats.re_replicated_bytes);
    if (p.run.completed) {
      json.field("hours", p.run.paper_hours()).field("residual", p.run.residual);
    } else {
      json.field("error", p.run.error.substr(0, 120));
    }
    json.end_object();
  }
  json.end_array()
      .begin_object("unrecoverable")
      .field("replication", 1)
      .field("failed_fast", failed_fast)
      .field("error", lost.error.substr(0, 120))
      .end_object()
      .field("deterministic", deterministic)
      .field("residual_bound", residual_bound)
      .end_object();
  write_json_file(out, json.str());
  std::printf("results written to %s\n", out.c_str());

  return stretch_ok && residual_ok && sweep_residuals_ok && recovery_ok &&
                 deterministic && failed_fast
             ? 0
             : 1;
}

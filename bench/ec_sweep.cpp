// Erasure-coded storage tier vs 3x replication under the PR 5 fault
// scenario: storage footprint, pipelined write traffic, and single-kill
// recovery cost, swept over the HDFS-EC stripe shapes.
//
// The paper runs on a Hadoop DFS with replication 3 — every committed block
// costs 3x its size on disk and 2x on the write pipeline. HDFS-EC-style
// Reed–Solomon stripes cut both: RS(k,m) stores (k+m)/k per byte and ships
// (k+m-1)/k cells over the pipeline, while still surviving any m losses
// (degraded reads decode from k survivors; node kills repair by
// reconstruction instead of re-replication). This bench quantifies that
// trade on the actual inversion pipeline:
//
//   policies — the same inversion under replication-3 and RS (3,2), (6,3),
//              (10,4): end-of-run logical/physical footprint and pipelined
//              redundancy bytes. Asserts RS(6,3) cuts physical storage
//              >= 1.8x and pipelined write bytes >= 1.3x vs replication-3.
//   kills    — per policy, the same single-kill scenario as fault_sweep
//              (a worker dies ~40% in): recovery stretch and repair totals
//              side by side — re-replicated bytes for replication,
//              reconstructed cells for EC.
//   hot cache — RS(6,3) plus a namenode hot-block cache for the repeatedly
//              re-read ut.bin factors: hit totals.
//   deterministic — two same-seed RS(6,3) kill runs must produce
//              bit-identical run reports.
//
// Emits BENCH_pr8.json (--out PATH). --probe runs the same scenarios on a
// small matrix for the CI smoke step.
#include <algorithm>
#include <vector>

#include "harness.hpp"

using namespace mri;
using namespace mri::bench;

namespace {

struct PolicySpec {
  const char* name;
  dfs::StoragePolicy policy;
  int k = 0;
  int m = 0;
};

/// The world for one policy: replication-3 or an RS(k,m) DFS, optionally
/// with a namenode hot-block cache and a kill schedule.
WorldSpec policy_world(const PolicySpec& spec,
                       const std::vector<ChaosEvent>& events,
                       std::uint64_t hot_cache_bytes = 0) {
  WorldSpec world;
  world.dfs.storage_policy = spec.policy;
  if (spec.policy == dfs::StoragePolicy::kErasureCoded) {
    world.dfs.ec.k = spec.k;
    world.dfs.ec.m = spec.m;
  }
  world.dfs.hot_cache_bytes = hot_cache_bytes;
  world.chaos.events = events;
  return world;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const bool probe = cli.get_bool("probe", false);
  const int nodes = cli.get_int("nodes", 16);  // RS(10,4) needs 14 cells
  const double scale = cli.get_double("scale", 64.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("chaos-seed", 7));
  const std::string out = cli.get_string("out", "BENCH_pr8.json");
  const double residual_bound = 1e-8;

  print_header("erasure-coded DFS storage vs replication: footprint, write "
               "traffic, recovery",
               "§7.4's storage layer");

  const ScaledSetup setup = sweep_setup(probe, scale, nodes);

  const std::vector<PolicySpec> policies = {
      {"replicate-3", dfs::StoragePolicy::kReplicate, 0, 0},
      {"rs-3-2", dfs::StoragePolicy::kErasureCoded, 3, 2},
      {"rs-6-3", dfs::StoragePolicy::kErasureCoded, 6, 3},
      {"rs-10-4", dfs::StoragePolicy::kErasureCoded, 10, 4},
  };

  struct PolicyPoint {
    PolicySpec spec;
    MrRun clean;
    MrRun killed;
    double kill_at = 0.0;
    double stretch = 0.0;
  };
  std::vector<PolicyPoint> points;

  std::printf("%-12s %14s %14s %12s %12s %10s\n", "policy", "logical",
              "physical", "overhead", "write-redun", "residual");
  bool clean_residuals_ok = true;
  for (const PolicySpec& spec : policies) {
    PolicyPoint p;
    p.spec = spec;
    p.clean = run_mapreduce(setup, nodes, {}, seed, nullptr, true,
                            policy_world(spec, {}));
    const StorageReport& storage = p.clean.run_report.storage;
    std::printf("%-12s %14llu %14llu %11.2fx %12llu %10.2e\n", spec.name,
                static_cast<unsigned long long>(storage.logical_bytes),
                static_cast<unsigned long long>(storage.physical_bytes),
                static_cast<double>(storage.physical_bytes) /
                    static_cast<double>(storage.logical_bytes),
                static_cast<unsigned long long>(
                    p.clean.run_report.dfs_io.bytes_replicated),
                p.clean.residual);
    if (p.clean.residual >= residual_bound) clean_residuals_ok = false;
    points.push_back(std::move(p));
  }

  // ---- headline ratios: RS(6,3) vs replication-3 --------------------------
  const PolicyPoint& repl = points[0];
  const PolicyPoint& rs63 = points[2];
  const double storage_ratio =
      static_cast<double>(repl.clean.run_report.storage.physical_bytes) /
      static_cast<double>(rs63.clean.run_report.storage.physical_bytes);
  const double write_ratio =
      static_cast<double>(repl.clean.run_report.dfs_io.bytes_replicated) /
      static_cast<double>(rs63.clean.run_report.dfs_io.bytes_replicated);
  std::printf("\nrs-6-3 vs replicate-3: %.2fx less physical storage, %.2fx "
              "fewer pipelined write bytes\n",
              storage_ratio, write_ratio);
  const bool storage_ok = storage_ratio >= 1.8;
  const bool write_ok = write_ratio >= 1.3;
  const bool logical_consistent =
      std::all_of(points.begin(), points.end(), [&](const PolicyPoint& p) {
        return p.clean.run_report.storage.logical_bytes ==
               repl.clean.run_report.storage.logical_bytes;
      });

  // ---- single-kill recovery, side by side ---------------------------------
  std::printf("\nsingle kill (node %d, ~40%% in):\n", nodes - 1);
  bool kills_ok = true;
  for (PolicyPoint& p : points) {
    p.kill_at = pick_kill_time(p.clean, 0.4);
    const std::vector<ChaosEvent> events = {
        {ChaosEventKind::kKillNode, p.kill_at, nodes - 1, 1.0}};
    p.killed = run_mapreduce(setup, nodes, {}, seed, nullptr, true,
                             policy_world(p.spec, events));
    if (!p.killed.completed) {
      std::printf("  %-12s did not recover: %s\n", p.spec.name,
                  p.killed.error.substr(0, 60).c_str());
      kills_ok = false;
      continue;
    }
    p.stretch = p.killed.paper_hours() / p.clean.paper_hours();
    std::printf("  %-12s %.2fx stretch, %.4f s repair (%llu B re-replicated, "
                "%d cell(s) reconstructed), residual %.2e\n",
                p.spec.name, p.stretch,
                p.killed.chaos_stats.re_replication_seconds,
                static_cast<unsigned long long>(
                    p.killed.chaos_stats.re_replicated_bytes),
                p.killed.chaos_stats.ec_cells_reconstructed,
                p.killed.residual);
    if (p.killed.residual >= residual_bound) kills_ok = false;
    // The repair mechanism must match the policy.
    const bool is_ec = p.spec.policy == dfs::StoragePolicy::kErasureCoded;
    if (is_ec && p.killed.chaos_stats.ec_cells_reconstructed == 0) {
      kills_ok = false;
    }
    if (!is_ec && p.killed.chaos_stats.re_replicated_bytes == 0) {
      kills_ok = false;
    }
  }

  // ---- determinism: two same-seed RS(6,3) kill runs -----------------------
  const std::vector<ChaosEvent> det_events = {
      {ChaosEventKind::kKillNode, rs63.kill_at, nodes - 1, 1.0}};
  const MrRun det = run_mapreduce(setup, nodes, {}, seed, nullptr, true,
                                  policy_world(rs63.spec, det_events));
  const bool deterministic =
      det.completed && det.report_json == rs63.killed.report_json;
  std::printf("\ndeterministic  : %s (same-seed rs-6-3 reports %s)\n",
              deterministic ? "yes" : "NO",
              deterministic ? "bit-identical" : "DIFFER");

  // ---- hot-block cache on the re-read ut.bin factors ----------------------
  const MrRun hot =
      run_mapreduce(setup, nodes, {}, seed, nullptr, true,
                    policy_world(rs63.spec, {}, /*hot_cache_bytes=*/64ull << 20));
  const std::uint64_t hot_hits = hot.run_report.storage.hot_cache.hits;
  const bool hot_ok = hot.completed && hot_hits > 0;
  std::printf("hot cache      : %llu hit(s) on cached factors%s\n",
              static_cast<unsigned long long>(hot_hits),
              hot_ok ? "" : " (EXPECTED > 0)");

  std::printf("\nstorage ratio >= 1.8x   : %s (%.2fx)\n",
              storage_ok ? "yes" : "NO", storage_ratio);
  std::printf("write ratio >= 1.3x     : %s (%.2fx)\n",
              write_ok ? "yes" : "NO", write_ratio);
  std::printf("kills recovered         : %s\n", kills_ok ? "yes" : "NO");
  std::printf("clean residuals < %.0e : %s\n", residual_bound,
              clean_residuals_ok ? "yes" : "NO");

  JsonWriter json(17);
  begin_sweep_json(json, probe, setup, nodes, seed);
  json.begin_array("policies");
  for (const PolicyPoint& p : points) {
    const StorageReport& storage = p.clean.run_report.storage;
    json.begin_object()
        .field("policy", p.spec.name)
        .field("ec_k", p.spec.k)
        .field("ec_m", p.spec.m)
        .begin_object("clean")
        .field("hours", p.clean.paper_hours())
        .field("residual", p.clean.residual)
        .field("logical_bytes", storage.logical_bytes)
        .field("physical_bytes", storage.physical_bytes)
        .field("write_redundancy_bytes",
               p.clean.run_report.dfs_io.bytes_replicated)
        .field("parity_bytes", storage.parity_bytes)
        .end_object()
        .begin_object("killed")
        .field("completed", p.killed.completed);
    if (p.killed.completed) {
      const RecoveryStats& repair = p.killed.chaos_stats;
      json.field("hours", p.killed.paper_hours())
          .field("stretch", p.stretch)
          .field("residual", p.killed.residual)
          .field("kill_at_sim_seconds", p.kill_at)
          .field("re_replicated_bytes", repair.re_replicated_bytes)
          .field("ec_cells_reconstructed", repair.ec_cells_reconstructed)
          .field("ec_reconstructed_bytes", repair.ec_reconstructed_bytes)
          .field("repair_seconds", repair.re_replication_seconds)
          .field("degraded_reads",
                 p.killed.run_report.storage.degraded_reads);
    } else {
      json.field("error", p.killed.error.substr(0, 120));
    }
    json.end_object().end_object();
  }
  json.end_array()
      .begin_object("headline")
      .field("storage_ratio_rs63_vs_repl3", storage_ratio)
      .field("write_ratio_rs63_vs_repl3", write_ratio)
      .field("storage_ratio_ok", storage_ok)
      .field("write_ratio_ok", write_ok)
      .end_object()
      .begin_object("hot_cache")
      .field("capacity_bytes", 64ull << 20)
      .field("hits", hot_hits)
      .field("completed", hot.completed)
      .end_object()
      .field("deterministic", deterministic)
      .field("residual_bound", residual_bound)
      .end_object();
  write_json_file(out, json.str());
  std::printf("results written to %s\n", out.c_str());

  return storage_ok && write_ok && logical_consistent && kills_ok &&
                 clean_residuals_ok && deterministic && hot_ok
             ? 0
             : 1;
}

// Three-way engine crossover (ISSUE 7 tentpole deliverable): the Fig-8
// comparison re-run with the SPIN-style in-memory engine as a third column.
//
//   crossover — for each paper matrix, the same inversion on (a) the
//               Hadoop-style disk-tier pipeline, (b) the SPIN-style engine
//               (block cache + pipeline fusion), (c) the ScaLAPACK
//               baseline. Asserts the in-memory engine beats replicated
//               disk (speedup > 1) and that cache hits were actually taken
//               (fusion happened, not just a tier rename).
//   chaos     — one node killed mid-run, Hadoop-style vs SPIN-style. The
//               Hadoop path recovers by task re-execution + DFS
//               re-replication; the SPIN path must recover its memory-tier
//               partitions by lineage recomputation waves with NO
//               UnrecoverableBlock, and still meet the residual bound.
//   spill     — SPIN run with a deliberately tiny per-node cache: LRU
//               eviction must spill to disk (bytes_spilled > 0) and the
//               answer must stay correct.
//   deterministic — two same-seed SPIN chaos runs must produce
//               bit-identical run reports (cache epochs and eviction order
//               are functions of the job sequence, not thread timing).
//
// Emits BENCH_pr7.json (--out PATH). --probe shrinks the sweep for CI.
#include <vector>

#include "harness.hpp"

using namespace mri;
using namespace mri::bench;

namespace {

/// One inversion on the Hadoop-style disk-tier pipeline or, with `spin`,
/// the SPIN-style in-memory engine, under an optional kill schedule.
MrRun run_engine(const ScaledSetup& s, int nodes, std::uint64_t seed,
                 bool spin, std::uint64_t cache_capacity_bytes,
                 const std::vector<ChaosEvent>& events) {
  core::InversionOptions opts;
  opts.engine = spin ? core::EngineKind::kSpin : core::EngineKind::kHadoop;
  opts.cache_capacity_bytes = cache_capacity_bytes;
  WorldSpec world;
  world.chaos.options.seed = seed;
  world.chaos.events = events;
  return run_mapreduce(s, nodes, opts, seed, nullptr, true, world);
}

const engine::CacheStats& cache_of(const MrRun& r) {
  return r.result.engine_stats.cache;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const bool probe = cli.get_bool("probe", false);
  const int nodes = cli.get_int("nodes", 4);
  const double scale = cli.get_double("scale", 64.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const std::string out = cli.get_string("out", "BENCH_pr7.json");
  const double residual_bound = 1e-8;  // §7.2: double precision stays ~1e-12
  const std::uint64_t cache_default = 256ull << 20;

  print_header("engine crossover: Hadoop-style vs SPIN-style vs ScaLAPACK",
               "Fig. 8 + §8 'implement on Spark'");

  // ---- 1. clean three-way crossover ---------------------------------------
  const std::vector<PaperMatrix> matrices =
      probe ? std::vector<PaperMatrix>{kM5}
            : std::vector<PaperMatrix>{kM5, kM1, kM2};
  struct Point {
    PaperMatrix m;
    ScaledSetup setup;
    MrRun hadoop;
    MrRun spin;
    ScalRun scalapack;
  };
  std::vector<Point> points;
  bool crossover_ok = true;
  bool fusion_ok = true;
  std::printf("clean runs at 1/%.0f scale on %d nodes "
              "(paper-hours = sim x S^3):\n", scale, nodes);
  for (const PaperMatrix& m : matrices) {
    Point p;
    p.m = m;
    p.setup = scaled_setup(m, scale);
    p.hadoop = run_engine(p.setup, nodes, seed, /*spin=*/false, cache_default,
                          {});
    p.spin = run_engine(p.setup, nodes, seed, /*spin=*/true, cache_default,
                        {});
    p.scalapack = run_scalapack(p.setup, nodes, seed);
    const double speedup = p.hadoop.paper_hours() / p.spin.paper_hours();
    std::printf("  %-3s (order %5lld): hadoop %7.2f h | spin %7.2f h "
                "(%.2fx, %llu cache hits) | scalapack %7.2f h\n",
                m.name, static_cast<long long>(p.setup.n),
                p.hadoop.paper_hours(), p.spin.paper_hours(), speedup,
                static_cast<unsigned long long>(cache_of(p.spin).hits),
                p.scalapack.paper_seconds / 3600.0);
    if (speedup <= 1.0) crossover_ok = false;
    if (!p.spin.result.engine_active || cache_of(p.spin).hits == 0) {
      fusion_ok = false;
    }
    if (p.hadoop.residual >= residual_bound ||
        p.spin.residual >= residual_bound) {
      crossover_ok = false;
    }
    points.push_back(std::move(p));
  }

  // ---- 2. chaos: one node kill, Hadoop recovery vs lineage recovery -------
  const Point& base = points.front();
  const int kill_node = nodes - 1;
  const double kill_at_hadoop = pick_kill_time(base.hadoop, 0.4);
  const double kill_at_spin = pick_kill_time(base.spin, 0.4);
  const std::vector<ChaosEvent> hadoop_events = {
      {ChaosEventKind::kKillNode, kill_at_hadoop, kill_node, 1.0}};
  const std::vector<ChaosEvent> spin_events = {
      {ChaosEventKind::kKillNode, kill_at_spin, kill_node, 1.0}};

  const MrRun hadoop_kill = run_engine(base.setup, nodes, seed, false,
                                       cache_default, hadoop_events);
  const MrRun spin_kill =
      run_engine(base.setup, nodes, seed, true, cache_default, spin_events);
  MRI_REQUIRE(hadoop_kill.completed,
              "hadoop kill run did not recover: " << hadoop_kill.error);
  const RecoveryStats& lineage = spin_kill.chaos_stats;

  const bool lineage_ok =
      spin_kill.completed && spin_kill.residual < residual_bound &&
      lineage.partitions_recomputed >= 1 && lineage.lineage_waves >= 1 &&
      spin_kill.error.find("nrecoverable") == std::string::npos;
  std::printf("\nnode %d killed mid-run (%s):\n", kill_node, base.m.name);
  std::printf("  hadoop: %.2f h (%.2fx clean), %d task(s) re-executed, "
              "%llu bytes re-replicated\n",
              hadoop_kill.paper_hours(),
              hadoop_kill.paper_hours() / base.hadoop.paper_hours(),
              hadoop_kill.run_report.recovery.tasks_recomputed,
              static_cast<unsigned long long>(
                  hadoop_kill.chaos_stats.re_replicated_bytes));
  if (spin_kill.completed) {
    std::printf("  spin  : %.2f h (%.2fx clean), %d partition(s) rebuilt in "
                "%d lineage wave(s), residual %.2e\n",
                spin_kill.paper_hours(),
                spin_kill.paper_hours() / base.spin.paper_hours(),
                lineage.partitions_recomputed, lineage.lineage_waves,
                spin_kill.residual);
  } else {
    std::printf("  spin  : DID NOT RECOVER (%s)\n",
                spin_kill.error.substr(0, 100).c_str());
  }

  // ---- 3. spill: tiny cache forces LRU eviction to disk -------------------
  const MrRun spill_run =
      run_engine(base.setup, nodes, seed, true, /*cache=*/16ull << 10, {});
  const bool spill_ok = spill_run.completed &&
                        spill_run.residual < residual_bound &&
                        cache_of(spill_run).evictions > 0 &&
                        cache_of(spill_run).spilled_bytes > 0;
  std::printf("\n16 KB/node cache: %llu eviction(s), %llu bytes spilled, "
              "residual %.2e -> %s\n",
              static_cast<unsigned long long>(cache_of(spill_run).evictions),
              static_cast<unsigned long long>(
                  cache_of(spill_run).spilled_bytes),
              spill_run.residual, spill_ok ? "ok" : "FAILED");

  // ---- 4. determinism: same-seed spin chaos reports bit-identical ---------
  const MrRun spin_kill2 =
      run_engine(base.setup, nodes, seed, true, cache_default, spin_events);
  const bool deterministic = spin_kill2.completed && spin_kill.completed &&
                             spin_kill2.report_json == spin_kill.report_json;
  std::printf("deterministic: %s (same-seed spin chaos reports %s)\n",
              deterministic ? "yes" : "NO",
              deterministic ? "bit-identical" : "DIFFER");

  std::printf("\nspin beats hadoop clean : %s\n", crossover_ok ? "yes" : "NO");
  std::printf("pipeline fusion active  : %s\n", fusion_ok ? "yes" : "NO");
  std::printf("lineage recovery        : %s\n", lineage_ok ? "yes" : "NO");

  JsonWriter json(17);
  json.begin_object()
      .begin_object("config")
      .field("nodes", nodes)
      .field("scale", scale)
      .field("seed", seed)
      .field("probe", probe)
      .field("residual_bound", residual_bound)
      .end_object()
      .begin_array("crossover");
  for (const Point& p : points) {
    json.begin_object()
        .field("matrix", p.m.name)
        .field("order", p.setup.n)
        .field("hadoop_hours", p.hadoop.paper_hours())
        .field("spin_hours", p.spin.paper_hours())
        .field("scalapack_hours", p.scalapack.paper_seconds / 3600.0)
        .field("speedup_spin_vs_hadoop",
               p.hadoop.paper_hours() / p.spin.paper_hours())
        .field("cache_hits", cache_of(p.spin).hits)
        .field("cache_insertions", cache_of(p.spin).insertions)
        .field("bytes_spilled", cache_of(p.spin).spilled_bytes)
        .field("residual_hadoop", p.hadoop.residual)
        .field("residual_spin", p.spin.residual)
        .field("residual_scalapack", p.scalapack.residual)
        .end_object();
  }
  json.end_array()
      .begin_object("chaos")
      .field("kill_node", kill_node)
      .begin_object("hadoop")
      .field("kill_at", kill_at_hadoop)
      .field("hours", hadoop_kill.paper_hours())
      .field("stretch", hadoop_kill.paper_hours() / base.hadoop.paper_hours())
      .field("tasks_recomputed",
             hadoop_kill.run_report.recovery.tasks_recomputed)
      .field("re_replicated_bytes", hadoop_kill.chaos_stats.re_replicated_bytes)
      .field("residual", hadoop_kill.residual)
      .end_object()
      .begin_object("spin")
      .field("kill_at", kill_at_spin)
      .field("completed", spin_kill.completed)
      .field("hours", spin_kill.paper_hours())
      .field("stretch", spin_kill.paper_hours() / base.spin.paper_hours())
      .field("partitions_recomputed", lineage.partitions_recomputed)
      .field("lineage_waves", lineage.lineage_waves)
      .field("lineage_recompute_seconds", lineage.lineage_recompute_seconds)
      .field("lineage_recomputed_bytes", lineage.lineage_recomputed_bytes)
      .field("residual", spin_kill.residual)
      .field("error", spin_kill.error.substr(0, 120))
      .end_object()
      .end_object()
      .begin_object("spill")
      .field("cache_bytes_per_node", 16ull << 10)
      .field("completed", spill_run.completed)
      .field("evictions", cache_of(spill_run).evictions)
      .field("bytes_spilled", cache_of(spill_run).spilled_bytes)
      .field("residual", spill_run.residual)
      .end_object()
      .field("deterministic", deterministic)
      .field("crossover_ok", crossover_ok)
      .field("fusion_ok", fusion_ok)
      .field("lineage_ok", lineage_ok)
      .field("spill_ok", spill_ok)
      .end_object();
  write_json_file(out, json.str());
  std::printf("results written to %s\n", out.c_str());

  return crossover_ok && fusion_ok && lineage_ok && spill_ok && deterministic
             ? 0
             : 1;
}

// mrinvert: a command-line matrix inverter backed by the MapReduce pipeline.
//
//   ./mrinvert_cli --input A.txt --output Ainv.txt [--nodes 8] [--nb 64]
//                  [--engine auto|mapreduce|spin|scalapack] [--cache-mb 256]
//                  [--overlap] [--trace-out trace.json]
//                  [--report-out report.json]
//                  [--storage-policy replicate|ec] [--ec k,m]
//                  [--hot-cache-mb N]
//                  [--kernel-backend naive|tiled|simd|threaded]
//                  [--solve B.txt] [--multiply-strategy wrap|multiround]
//                  [--replication r]
//   ./mrinvert_cli --generate 256 --output Ainv.txt        # random input
//   ./mrinvert_cli --serve requests.trace [--max-concurrent 2]
//                  [--queue-depth 8] [--tenant-queue-limit 0]
//                  [--memory-budget-mb 0]
//
// --engine spin selects the SPIN-style in-memory engine: intermediates live
// in per-node block caches (--cache-mb per node), consumers read resident
// inputs at memory bandwidth, and node kills recover by lineage
// recomputation.
//
// --kernel-backend selects the process-wide GEMM/TRSM implementation every
// dense kernel dispatches through (default: simd when the CPU has AVX2+FMA,
// else tiled). Simulated accounting is backend-independent; only wall-clock
// speed changes.
//
// --solve B.txt solves A·X = B: the pipeline inverts A, then multiplies
// X = A⁻¹·B with MapReduce jobs scheduled by --multiply-strategy — wrap
// (the paper's §6.2 block wrap, one job) or multiround (the
// replication-parameterized multi-round scheme: --replication r segments
// per task per round, ceil(m0/r) chained jobs trading rounds for per-task
// memory).
//
// Reads a whitespace-separated text matrix from the local filesystem (the
// paper's a.txt format), inverts it on a simulated cluster, writes the
// inverse back as text, and prints the §7.2 residual and the run report.
// --trace-out writes a Chrome trace_event timeline (chrome://tracing);
// --report-out writes the machine-readable run report (schema in README.md).
//
// --serve replays a request-trace file (tenants + timed inversion requests;
// see examples/sample_requests.trace) through the multi-tenant inversion
// service: admission control, fair-share slots, per-tenant SLO percentiles.
//
// --storage-policy ec stores disk-tier DFS files as Reed-Solomon(k,m)
// stripes (--ec k,m, default 6,3) instead of 3x replication: (k+m)/k
// physical overhead, degraded reads decode lost cells from any k survivors,
// and node kills repair by reconstruction instead of re-replication.
// --hot-cache-mb N pins the hottest transposed-U factors in a namenode
// cache so repeated re-reads skip the datanodes entirely.
//
// Chaos flags (both modes; the §7.4 fault-tolerance story):
//   --kill-node id@t[,id@t...]   kill worker nodes at simulated seconds t
//                                (bare ids sample a time; needs --chaos-seed)
//   --chaos-seed N               seed for sampled fault schedules
//   --chaos-mtbf S               per-node mean time between failures
//   --chaos-horizon S            sampling horizon (default 86400)
// The run completes with a correct inverse despite the losses; the report's
// "recovery" section counts re-executed tasks and re-replicated blocks.
//
// Integrity flags (silent-corruption chaos and its defenses):
//   --corrupt-block id@t[,...]   silently flip bits in one block copy on
//                                node id at simulated seconds t
//   --bitrot-rate R              seeded background corruption, expected
//                                events/node/second (needs --chaos-seed)
//   --verify-checksums on|off    CRC32C blocks on write, verify on read,
//                                read-repair from a good copy (default off)
//   --scrub-interval S           background scrubber walks every block copy
//                                each S simulated seconds (needs
//                                --verify-checksums on)
// With verification off a corrupted read silently serves rotten bytes and
// the residual blows up; with it on every corruption is detected and
// repaired (replica copy, EC decode, or lineage recompute) and the inverse
// stays at machine epsilon. The report's "integrity" section has the counts.
//
// Any other --option is refused (a typo must not run as if it were absent).
//
// Exit codes: 0 success; 1 residual not below 1e-5, no request admitted, or
// any other error; 2 usage or invalid argument (bad or conflicting flags, an
// unreadable input file); 3 numerical error (e.g. a singular input); 4 DFS
// error (including unrecoverable block loss). Errors print "error: <what>"
// to stderr.
#include <fstream>
#include <memory>
#include <sstream>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/units.hpp"
#include "core/adaptive.hpp"
#include "core/multiply_strategy.hpp"
#include "linalg/kernels/kernel.hpp"
#include "mapreduce/trace_export.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "matrix/text_format.hpp"
#include "net/topology.hpp"
#include "service/loadgen.hpp"
#include "service/service.hpp"

namespace {

mri::Matrix load_text_file(const std::string& path) {
  std::ifstream in(path);
  MRI_REQUIRE(in.good(), "cannot open input file: " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return mri::matrix_from_text(buffer.str());
}

void save_text_file(const std::string& path, const mri::Matrix& m) {
  std::ofstream out(path);
  MRI_REQUIRE(out.good(), "cannot open output file: " << path);
  out << mri::matrix_to_text(m);
}

bool chaos_requested(const mri::CliOptions& cli) {
  return cli.has("chaos-seed") || cli.has("kill-node") ||
         cli.has("chaos-mtbf") || cli.has("corrupt-block") ||
         cli.has("bitrot-rate") || cli.has("scrub-interval");
}

// Builds the network topology from --topology/--racks/--oversub/--rack-aware
// and attaches it to both the cluster (flow-costed scheduling) and the DFS
// (rack-aware placement, transfer recording). "flat" — the default — leaves
// both untouched and reproduces the scalar network model bit-identically.
void attach_topology(const mri::CliOptions& cli, mri::Cluster* cluster,
                     mri::dfs::Dfs* fs) {
  using namespace mri;
  const std::string kind = cli.get_string("topology", "flat");
  if (kind == "flat") {
    MRI_REQUIRE(!cli.has("oversub") && !cli.has("racks"),
                "--racks/--oversub shape the racked topology; add "
                "--topology racked or drop them");
    return;
  }
  MRI_REQUIRE(kind == "racked",
              "unknown --topology '" << kind << "'; use flat or racked");
  net::TopologyOptions opts;
  opts.kind = net::TopologyKind::kRacked;
  opts.racks = static_cast<int>(cli.get_int("racks", 4));
  opts.oversubscription = cli.get_double("oversub", 1.0);
  opts.rack_aware_placement = cli.get_bool("rack-aware", true);
  auto topology = std::make_shared<const net::Topology>(
      cluster->size(), cluster->cost_model().network_bandwidth, opts);
  cluster->set_topology(topology);
  fs->set_topology(topology);
  std::printf("topology: %d racks, %.2g:1 oversubscription, rack-aware "
              "placement %s\n",
              opts.racks, opts.oversubscription,
              opts.rack_aware_placement ? "on" : "off");
}

// Builds the DFS configuration from --storage-policy/--ec/--hot-cache-mb.
// EC parameters get friendly CLI errors here; the Dfs constructor re-checks
// the same invariants.
mri::dfs::DfsConfig build_dfs_config(const mri::CliOptions& cli, int nodes) {
  using namespace mri;
  dfs::DfsConfig config;
  const std::string policy = cli.get_string("storage-policy", "replicate");
  if (policy == "ec" || policy == "erasure_coded") {
    config.storage_policy = dfs::StoragePolicy::kErasureCoded;
  } else {
    MRI_REQUIRE(policy == "replicate", "unknown --storage-policy '"
                                           << policy
                                           << "'; use replicate or ec");
    MRI_REQUIRE(!cli.has("ec"),
                "--ec k,m shapes the erasure-coded stripe, but the storage "
                "policy is replicate; add --storage-policy ec or drop --ec");
  }
  if (cli.has("ec")) {
    config.ec = dfs::parse_ec_params(cli.get_string("ec", ""));
  }
  if (config.storage_policy == dfs::StoragePolicy::kErasureCoded) {
    MRI_REQUIRE(config.ec.cells() <= nodes,
                "--ec " << config.ec.k << "," << config.ec.m
                        << " spreads " << config.ec.cells()
                        << " cells over distinct nodes, but --nodes "
                        << nodes << " is smaller; lower k+m or add nodes");
    std::printf("storage: erasure-coded RS(%d,%d) stripes (%.2fx physical "
                "overhead vs 3x replication)\n",
                config.ec.k, config.ec.m,
                static_cast<double>(config.ec.cells()) / config.ec.k);
  }
  config.hot_cache_bytes =
      static_cast<std::uint64_t>(cli.get_int("hot-cache-mb", 0)) << 20;
  if (cli.has("verify-checksums")) {
    const std::string verify = cli.get_string("verify-checksums", "");
    MRI_REQUIRE(verify == "on" || verify == "off",
                "unknown --verify-checksums '" << verify
                                               << "'; use on or off");
    config.verify_checksums = (verify == "on");
  }
  if (cli.has("scrub-interval")) {
    MRI_REQUIRE(config.verify_checksums,
                "--scrub-interval drives the background checksum scrubber, "
                "which needs checksums to verify; add --verify-checksums on");
    config.scrub_interval_seconds = cli.get_double("scrub-interval", 0.0);
    MRI_REQUIRE(config.scrub_interval_seconds > 0.0,
                "--scrub-interval must be positive seconds, got "
                    << config.scrub_interval_seconds);
  }
  return config;
}

// Applies --kernel-backend to the process-wide kernel default (both run
// modes): every GEMM/TRSM in the run dispatches through the selected
// backend. Unavailable backends get a friendly error instead of a silent
// fallback.
void apply_kernel_backend_flag(const mri::CliOptions& cli) {
  using namespace mri;
  if (!cli.has("kernel-backend")) return;
  const std::string name = cli.get_string("kernel-backend", "");
  kernels::Backend backend;
  MRI_REQUIRE(kernels::parse_backend(name, &backend),
              "unknown --kernel-backend '"
                  << name << "'; use naive (ijk baseline), tiled "
                  "(cache-blocked), simd (AVX2+FMA) or threaded");
  MRI_REQUIRE(kernels::backend_available(backend),
              "--kernel-backend " << name
                                  << " needs AVX2+FMA, which this CPU does "
                                     "not report; use tiled (cache-blocked "
                                     "scalar, auto-vectorized) instead");
  kernels::set_default_backend(backend);
}

// Builds the multiply-strategy selection from --multiply-strategy and
// --replication (both run modes). Flag combinations are validated here with
// actionable errors; the engine-compatibility checks live at the call sites
// (serve never runs ScaLAPACK, main refuses the combination explicitly).
mri::core::MultiplyStrategyOptions build_multiply_options(
    const mri::CliOptions& cli) {
  using namespace mri;
  core::MultiplyStrategyOptions opts;
  const std::string name = cli.get_string("multiply-strategy", "wrap");
  MRI_REQUIRE(core::parse_multiply_strategy(name, &opts.strategy),
              "unknown --multiply-strategy '"
                  << name << "'; use wrap (the paper's §6.2 block wrap, one "
                  "job) or multiround (replication-parameterized multi-round "
                  "multiply, ceil(m0/r) chained jobs)");
  if (cli.has("replication")) {
    MRI_REQUIRE(opts.strategy == core::MultiplyStrategyKind::kMultiRound,
                "--replication r sets how many k-segments a multiround "
                "reduce task accumulates per round; add --multiply-strategy "
                "multiround or drop --replication");
    opts.replication = static_cast<int>(cli.get_int("replication", 1));
    MRI_REQUIRE(opts.replication >= 1,
                "--replication must be >= 1, got "
                    << opts.replication << " (r = segments per task per "
                    "round; r >= m0 degenerates to a single round)");
  }
  return opts;
}

// Adds one chaos event per entry of the --kill-node or --corrupt-block
// list (`id@t[,id@t...]`). A bare id samples its time, which needs
// --chaos-seed. Node 0 is the master: it may be corrupted but not killed.
void add_timed_events(const mri::CliOptions& cli, mri::ChaosEventKind kind,
                      int nodes, mri::ChaosEngine* engine) {
  using namespace mri;
  const bool kill = kind == ChaosEventKind::kKillNode;
  const std::string flag = kill ? "--kill-node" : "--corrupt-block";
  std::istringstream tokens(cli.get_string(flag.substr(2), ""));
  std::string token;
  while (std::getline(tokens, token, ',')) {
    if (token.empty()) continue;
    const std::size_t at_pos = token.find('@');
    int node = -1;
    double at = -1.0;
    try {
      node = std::stoi(token.substr(0, at_pos));
      if (at_pos != std::string::npos) at = std::stod(token.substr(at_pos + 1));
    } catch (const std::exception&) {
      MRI_REQUIRE(false, "cannot parse " << flag << " entry '" << token
                                         << "'; expected id@seconds (3@120) "
                                            "or a bare node id with "
                                            "--chaos-seed");
    }
    MRI_REQUIRE(!kill || node != 0,
                "--kill-node 0 would take down the master (jobtracker + "
                "namenode) and abort the run rather than stretch it; pick a "
                "worker id in 1.." << nodes - 1);
    const int first_id = kill ? 1 : 0;
    MRI_REQUIRE(node >= first_id && node < nodes,
                flag << " " << node << " is outside the cluster; --nodes "
                     << nodes << " has " << (kill ? "worker" : "node")
                     << " ids " << first_id << ".." << nodes - 1);
    if (at_pos == std::string::npos) {
      MRI_REQUIRE(cli.has("chaos-seed"),
                  flag << " " << node << " has no "
                       << (kill ? "kill" : "corruption")
                       << " time; give one explicitly (" << flag << " "
                       << node
                       << "@3600) or add --chaos-seed N to sample a "
                          "deterministic time");
      at = engine->sample_kill_time(node);
    }
    MRI_REQUIRE(at >= 0.0, flag << " " << node << "@" << at << ": "
                                << (kill ? "kill time" : "time")
                                << " must be >= 0");
    engine->add_event({kind, at, node});  // salt 0: corrupt a primary copy
  }
}

// Fills the run report's kernel block (both run modes): the backend every
// GEMM/TRSM dispatched through, the multiply strategy, and the kernel
// counters the run accumulated.
void fill_kernel_report(mri::KernelReport* kernel,
                        mri::core::MultiplyStrategyKind strategy,
                        int replication, int rounds,
                        const mri::kernels::KernelCounters& delta) {
  using namespace mri;
  kernel->backend = kernels::backend_name(kernels::default_backend());
  kernel->multiply_strategy = core::multiply_strategy_name(strategy);
  kernel->replication = replication;
  kernel->multiply_rounds = rounds;
  kernel->gemm_calls = delta.gemm_calls;
  kernel->trsm_calls = delta.trsm_calls;
  kernel->kernel_flops = delta.flops;
  kernel->kernel_seconds = delta.seconds;
  kernel->achieved_gflops = delta.gflops();
}

// Builds the chaos engine from the --chaos-*/--kill-node flags and binds
// it to the DFS with the cluster's cost model; null when none were given.
std::unique_ptr<mri::ChaosEngine> build_chaos_engine(
    const mri::CliOptions& cli, const mri::Cluster& cluster,
    mri::dfs::Dfs* fs) {
  using namespace mri;
  if (!chaos_requested(cli)) return nullptr;
  const int nodes = cluster.size();
  MRI_REQUIRE(cli.has("chaos-seed") || !cli.has("chaos-mtbf"),
              "--chaos-mtbf samples a random fault schedule and needs "
              "--chaos-seed N to make it reproducible; add --chaos-seed");

  ChaosOptions opts;
  opts.seed = static_cast<std::uint64_t>(cli.get_int("chaos-seed", 0));
  opts.mtbf_seconds = cli.get_double("chaos-mtbf", 0.0);
  opts.horizon_seconds = cli.get_double("chaos-horizon", 86400.0);
  MRI_REQUIRE(opts.horizon_seconds > 0.0,
              "--chaos-horizon must be positive, got "
                  << opts.horizon_seconds);
  opts.bitrot_rate = cli.get_double("bitrot-rate", 0.0);
  auto engine = std::make_unique<ChaosEngine>(opts);
  if (cli.has("chaos-mtbf")) {
    MRI_REQUIRE(opts.mtbf_seconds > 0.0,
                "--chaos-mtbf must be positive seconds, got "
                    << opts.mtbf_seconds);
    engine->sample_faults(nodes);
  }
  if (cli.has("bitrot-rate")) {
    MRI_REQUIRE(cli.has("chaos-seed"),
                "--bitrot-rate samples a random corruption schedule and "
                "needs --chaos-seed N to make it reproducible; add "
                "--chaos-seed");
    MRI_REQUIRE(opts.bitrot_rate > 0.0,
                "--bitrot-rate must be positive (expected corruptions per "
                "node per simulated second), got " << opts.bitrot_rate);
    engine->sample_bitrot(nodes);
  }

  add_timed_events(cli, ChaosEventKind::kKillNode, nodes, engine.get());
  add_timed_events(cli, ChaosEventKind::kCorruptBlock, nodes, engine.get());
  fs->bind_chaos(engine.get(), cluster.cost_model().network_bandwidth,
                 &cluster.cost_model());
  return engine;
}

// Honours --trace-out / --report-out: writes the run's Chrome trace and
// run-report JSON.
void export_report(const mri::CliOptions& cli, const mri::RunReport& report) {
  using namespace mri;
  const std::string trace_out = cli.get_string("trace-out", "");
  if (!trace_out.empty()) {
    write_json_file(trace_out, chrome_trace_json(report));
    std::printf("chrome trace written to %s (load in chrome://tracing)\n",
                trace_out.c_str());
  }
  const std::string report_out = cli.get_string("report-out", "");
  if (!report_out.empty()) {
    write_json_file(report_out, run_report_json(report));
    std::printf("run report written to %s\n", report_out.c_str());
  }
}

// Replays a request-trace file through the multi-tenant inversion service
// and prints the per-tenant SLO report.
int run_serve(const mri::CliOptions& cli) {
  using namespace mri;
  const std::string trace_path = cli.get_string("serve", "");
  MRI_REQUIRE(!trace_path.empty(),
              "--serve needs a request-trace file: --serve requests.trace "
              "(see examples/sample_requests.trace)");
  std::ifstream in(trace_path);
  MRI_REQUIRE(in.good(), "cannot open request trace: " << trace_path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const service::RequestTrace trace =
      service::parse_request_trace(buffer.str());

  const int nodes = static_cast<int>(cli.get_int("nodes", 8));
  MetricsRegistry metrics;
  Cluster cluster(nodes, CostModel::ec2_medium());
  dfs::Dfs fs(nodes, build_dfs_config(cli, nodes), &metrics);
  attach_topology(cli, &cluster, &fs);
  ThreadPool pool(4);
  std::unique_ptr<ChaosEngine> chaos = build_chaos_engine(cli, cluster, &fs);

  service::ServiceOptions options;
  options.shares = trace.shares;
  options.max_concurrent = static_cast<int>(cli.get_int("max-concurrent", 2));
  options.admission.max_queue_depth =
      static_cast<int>(cli.get_int("queue-depth", 8));
  options.admission.per_tenant_queue_limit =
      static_cast<int>(cli.get_int("tenant-queue-limit", 0));
  options.inversion.nb = cli.get_int("nb", 0);
  if (options.inversion.nb <= 0) options.inversion.nb = 256;
  if (cli.get_string("engine", "") == "spin") {
    options.inversion.engine = core::EngineKind::kSpin;
  }
  options.inversion.cache_capacity_bytes =
      static_cast<std::uint64_t>(cli.get_int("cache-mb", 256)) << 20;
  options.admission.memory_budget_bytes_per_tenant =
      static_cast<std::uint64_t>(cli.get_int("memory-budget-mb", 0)) << 20;
  MRI_REQUIRE(!cli.has("memory-budget-mb") ||
                  options.inversion.engine == core::EngineKind::kSpin,
              "--memory-budget-mb bounds tenants' in-memory intermediates, "
              "which only the spin engine keeps; add --engine spin or drop "
              "the budget");
  options.inversion.overlap_final_stage = cli.get_bool("overlap", false);
  options.inversion.multiply = build_multiply_options(cli);
  options.inversion.work_dir = "/svc";

  std::printf("serving %zu requests from %zu tenants (%s) on %d nodes: "
              "%d execution slots, queue depth %d\n\n",
              trace.requests.size(), trace.shares.size(), trace_path.c_str(),
              nodes, options.max_concurrent,
              options.admission.max_queue_depth);

  service::InversionService svc(&cluster, &fs, &pool, options, nullptr,
                                &metrics, chaos.get());
  const kernels::KernelCounters kernel_before = kernels::counters_snapshot();
  service::ServiceResult result = svc.run(trace.requests);
  const kernels::KernelCounters kernel_delta =
      kernels::counters_snapshot() - kernel_before;
  // Requests plan their multiplies independently; the block keeps the
  // requested replication and the single-round default.
  fill_kernel_report(&result.report.kernel, options.inversion.multiply.strategy,
                     options.inversion.multiply.replication, /*rounds=*/1,
                     kernel_delta);

  std::printf("%-12s %6s %8s %8s %12s %10s %10s %10s %6s\n", "tenant",
              "weight", "admitted", "rejected", "slot-sec", "p50 (s)",
              "p95 (s)", "p99 (s)", "miss");
  for (const TenantReport& t : result.report.tenants) {
    std::printf("%-12s %6d %8d %8d %12.3f %10.3f %10.3f %10.3f %6d\n",
                t.tenant.c_str(), t.weight, t.admitted, t.rejected,
                t.slot_seconds, t.latency_p50, t.latency_p95, t.latency_p99,
                t.deadline_misses);
  }
  std::printf("\n%d submitted, %d admitted, %d rejected; makespan %s; "
              "fairness index %.4f\n",
              result.submitted, result.admitted, result.rejected,
              format_duration(result.makespan).c_str(),
              result.report.fairness_index);
  if (chaos) {
    const RecoveryReport& rec = result.report.recovery;
    std::printf("chaos: %d node(s) killed, %d task(s) recomputed, %s "
                "re-replicated, %d retried, %d unrecoverable\n",
                rec.nodes_killed, rec.tasks_recomputed,
                format_bytes(rec.re_replicated_bytes).c_str(),
                rec.request_retries, rec.requests_unrecoverable);
  }

  export_report(cli, result.report);
  return result.admitted > 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  using namespace mri;
  CliOptions cli(argc, argv);
  // --help is listed so it still falls through to the usage message below.
  cli.reject_unknown(
      {"bitrot-rate", "cache-mb", "chaos-horizon", "chaos-mtbf", "chaos-seed",
       "corrupt-block", "ec", "engine", "generate", "help", "hot-cache-mb",
       "input", "kernel-backend", "kill-node", "max-concurrent",
       "memory-budget-mb", "multiply-strategy", "nb", "nodes", "output",
       "overlap", "oversub", "queue-depth", "rack-aware", "racks",
       "replication", "report-out", "scrub-interval", "serve", "solve",
       "storage-policy", "tenant-queue-limit", "topology", "trace-out",
       "verify-checksums"});
  const int nodes = static_cast<int>(cli.get_int("nodes", 8));
  const std::string engine = cli.get_string("engine", "auto");
  const std::string output = cli.get_string("output", "");
  apply_kernel_backend_flag(cli);

  if (cli.has("serve")) {
    MRI_REQUIRE(!cli.has("solve"),
                "--serve takes its workload from the trace file and runs "
                "inversions only; drop --solve");
    // Single-inversion flags make no sense against a request trace; reject
    // them with a pointer at the right alternative instead of ignoring them.
    MRI_REQUIRE(!cli.has("input") && !cli.has("generate"),
                "--serve takes its workload from the trace file; drop "
                "--input/--generate or put the matrix spec on a 'request' "
                "line of the trace");
    MRI_REQUIRE(!cli.has("output"),
                "--serve runs many inversions and writes no single inverse; "
                "drop --output (use --report-out for the per-tenant report)");
    MRI_REQUIRE(!cli.has("engine") || engine == "mapreduce" ||
                    engine == "spin",
                "--serve always drives the MapReduce pipeline (engine '"
                    << engine << "' cannot share the service's slot pool); "
                    "drop --engine or pass --engine mapreduce (or spin for "
                    "memory-tier intermediates)");
    return run_serve(cli);
  }
  MRI_REQUIRE(!(cli.has("overlap") && engine == "scalapack"),
              "--overlap schedules the final stage on the MapReduce DAG "
              "executor, which --engine scalapack never runs; drop --overlap "
              "or use --engine mapreduce (or auto)");
  MRI_REQUIRE(!(cli.has("cache-mb") && engine == "scalapack"),
              "--cache-mb sizes the spin engine's per-node block cache, "
              "which --engine scalapack never uses; drop --cache-mb or use "
              "--engine spin");
  MRI_REQUIRE(!cli.has("cache-mb") || engine == "spin",
              "--cache-mb sizes the spin engine's per-node block cache; add "
              "--engine spin (Hadoop-style runs keep intermediates on "
              "disk, not in a cache)");
  MRI_REQUIRE(!cli.has("memory-budget-mb"),
              "--memory-budget-mb is a --serve admission bound (per-tenant "
              "in-memory footprint); single inversions have no tenants — "
              "drop it or run --serve");
  MRI_REQUIRE(!((cli.has("corrupt-block") || cli.has("bitrot-rate") ||
                 cli.has("scrub-interval") || cli.has("verify-checksums")) &&
                engine == "scalapack"),
              "--corrupt-block/--bitrot-rate/--verify-checksums/"
              "--scrub-interval exercise DFS block integrity, and --engine "
              "scalapack never touches the DFS (it runs on MPI ranks); drop "
              "the integrity flags or use --engine mapreduce (or auto)");
  MRI_REQUIRE(!(chaos_requested(cli) && engine == "scalapack"),
              "--kill-node/--chaos-* simulate node failures, and ScaLAPACK/"
              "MPI cannot survive one — a lost rank aborts the whole run "
              "(the paper's §7.4 point); drop the chaos flags or use "
              "--engine mapreduce");
  MRI_REQUIRE(!(cli.get_string("topology", "flat") != "flat" &&
                engine == "scalapack"),
              "--topology racked models DFS and shuffle flows, which "
              "--engine scalapack never produces; drop --topology or use "
              "--engine mapreduce (or auto)");
  MRI_REQUIRE(!((cli.get_string("storage-policy", "replicate") != "replicate"
                 || cli.has("ec")) &&
                engine == "scalapack"),
              "--storage-policy ec stripes DFS blocks, which --engine "
              "scalapack never writes (it runs on MPI ranks, not the DFS); "
              "drop the EC flags or use --engine mapreduce (or auto)");
  MRI_REQUIRE(!((cli.has("multiply-strategy") || cli.has("replication")) &&
                engine == "scalapack"),
              "--multiply-strategy/--replication schedule MapReduce multiply "
              "jobs, which --engine scalapack never runs; drop the multiply "
              "flags or use --engine mapreduce (or auto)");
  MRI_REQUIRE(!(cli.has("solve") && engine == "scalapack"),
              "--solve runs X = A^-1*B as MapReduce multiply jobs after the "
              "inversion; drop --solve or use --engine mapreduce (or auto)");

  Matrix a;
  if (cli.has("generate")) {
    a = random_matrix(cli.get_int("generate", 256), /*seed=*/1);
    std::printf("generated a random %lld x %lld matrix\n",
                static_cast<long long>(a.rows()),
                static_cast<long long>(a.cols()));
  } else if (cli.has("input")) {
    a = load_text_file(cli.get_string("input", ""));
    std::printf("loaded %lld x %lld matrix from %s\n",
                static_cast<long long>(a.rows()),
                static_cast<long long>(a.cols()),
                cli.get_string("input", "").c_str());
  } else {
    std::fprintf(stderr,
                 "usage: mrinvert_cli (--input A.txt | --generate N) "
                 "[--output Ainv.txt] [--nodes N] [--nb N]\n"
                 "       [--engine auto|mapreduce|spin|scalapack] "
                 "[--cache-mb N] [--overlap]\n"
                 "       [--topology flat|racked] [--racks N] [--oversub X] "
                 "[--rack-aware 0|1]\n"
                 "       [--storage-policy replicate|ec] [--ec k,m] "
                 "[--hot-cache-mb N]\n"
                 "       [--kernel-backend naive|tiled|simd|threaded] "
                 "[--solve B.txt]\n"
                 "       [--multiply-strategy wrap|multiround] "
                 "[--replication r]\n"
                 "       [--kill-node id@t[,id@t...]] [--chaos-seed N] "
                 "[--chaos-mtbf S]\n"
                 "       [--corrupt-block id@t[,...]] [--bitrot-rate R] "
                 "[--verify-checksums on|off]\n"
                 "       [--scrub-interval S]\n"
                 "       mrinvert_cli --serve requests.trace "
                 "[--max-concurrent N] [--queue-depth N]\n");
    return 2;
  }
  MRI_REQUIRE(a.square(), "input matrix must be square");

  MetricsRegistry metrics;
  Cluster cluster(nodes, CostModel::ec2_medium());
  dfs::Dfs fs(nodes, build_dfs_config(cli, nodes), &metrics);
  attach_topology(cli, &cluster, &fs);
  ThreadPool pool(4);
  std::unique_ptr<ChaosEngine> chaos = build_chaos_engine(cli, cluster, &fs);

  core::InversionOptions options;
  options.nb = cli.get_int("nb", std::max<Index>(32, a.rows() / 8));
  options.cache_capacity_bytes =
      static_cast<std::uint64_t>(cli.get_int("cache-mb", 256)) << 20;
  options.overlap_final_stage = cli.get_bool("overlap", false);
  options.multiply = build_multiply_options(cli);
  const bool solving = cli.has("solve");

  std::string effective_engine = engine;
  if (engine == "spin") {
    // The spin engine rides the MapReduce pipeline; from here down it is
    // the MapReduce path with the in-memory engine selected.
    options.engine = core::EngineKind::kSpin;
    effective_engine = "mapreduce";
  }
  if (chaos && engine == "auto") {
    // The auto-picker compares fault-free predictions; chaos only makes
    // sense on the engine that can survive it.
    std::printf("note: chaos flags force the MapReduce engine (auto's "
                "ScaLAPACK candidate cannot survive node loss)\n");
    effective_engine = "mapreduce";
  }
  if (solving && effective_engine != "mapreduce") {
    std::printf("note: --solve runs its multiply jobs on the MapReduce "
                "pipeline; forcing the MapReduce engine\n");
    effective_engine = "mapreduce";
  }

  Matrix inverse;  // --solve: holds X instead of A^-1
  Matrix rhs;      // --solve: the right-hand side B
  SimReport report;
  std::vector<mr::JobResult> jobs;
  std::vector<MasterSpan> master_spans;
  engine::EngineStats engine_stats;
  core::MultiplyPlan multiply_plan;
  bool engine_active = false;
  const kernels::KernelCounters kernel_before = kernels::counters_snapshot();
  if (effective_engine == "mapreduce" && solving) {
    rhs = load_text_file(cli.get_string("solve", ""));
    core::MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics,
                                     chaos.get());
    auto r = inverter.solve(a, rhs, options);
    inverse = std::move(r.x);
    report = r.report;
    jobs = std::move(r.jobs);
    master_spans = std::move(r.master_spans);
    multiply_plan = r.multiply_plan;
    std::printf("engine: %s (%d jobs)\n",
                engine == "spin" ? "spin" : "mapreduce", report.jobs);
    std::printf("multiply strategy: %s (%d round(s) of %d segment(s), "
                "replication %d, peak task footprint %s)\n",
                core::multiply_strategy_name(options.multiply.strategy),
                multiply_plan.rounds, multiply_plan.segments,
                multiply_plan.replication,
                format_bytes(multiply_plan.peak_task_bytes).c_str());
  } else if (effective_engine == "mapreduce") {
    core::MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics,
                                     chaos.get());
    auto r = inverter.invert(a, options);
    inverse = std::move(r.inverse);
    report = r.report;
    jobs = std::move(r.jobs);
    master_spans = std::move(r.master_spans);
    engine_active = r.engine_active;
    engine_stats = std::move(r.engine_stats);
    std::printf("engine: %s (%d jobs)\n",
                engine == "spin" ? "spin" : "mapreduce", report.jobs);
    if (engine_active) {
      std::printf("spin engine: %llu cache hit(s), %llu eviction(s) (%s "
                  "spilled), %d partition(s) recomputed in %d wave(s)\n",
                  static_cast<unsigned long long>(engine_stats.cache.hits),
                  static_cast<unsigned long long>(
                      engine_stats.cache.evictions),
                  format_bytes(engine_stats.cache.spilled_bytes).c_str(),
                  engine_stats.partitions_recomputed,
                  engine_stats.lineage_waves);
    }
  } else if (engine == "scalapack") {
    auto r = scalapack::invert(a, cluster);
    inverse = std::move(r.inverse);
    report = r.report;
    std::printf("engine: scalapack\n");
  } else {
    MRI_REQUIRE(engine == "auto", "unknown engine '" << engine << "'");
    core::AdaptiveInverter inverter(&cluster, &fs, &pool, &metrics);
    auto r = inverter.invert(a, options);
    inverse = std::move(r.inverse);
    report = r.report;
    jobs = std::move(r.jobs);
    master_spans = std::move(r.master_spans);
    std::printf("engine: %s (auto; predicted mapreduce %.3g s vs scalapack "
                "%.3g s)\n",
                core::engine_name(r.engine),
                r.prediction.mapreduce_seconds,
                r.prediction.scalapack_seconds);
  }

  const kernels::KernelCounters kernel_delta =
      kernels::counters_snapshot() - kernel_before;
  if (effective_engine == "mapreduce") {
    // Wall-clock kernel identity: printed (and kept in the in-memory
    // report) for CostModel calibration, never in the JSON export. The
    // printed name includes the ISA path; the report's does not, since
    // every path gives the same bits.
    std::printf("kernel: %s backend, %.3g GFLOP/s achieved over %llu GEMM + "
                "%llu TRSM call(s) (CostModel assumes %.3g FLOP/s)\n",
                kernels::backend_description(kernels::default_backend())
                    .c_str(),
                kernel_delta.gflops(),
                static_cast<unsigned long long>(kernel_delta.gemm_calls),
                static_cast<unsigned long long>(kernel_delta.trsm_calls),
                cluster.cost_model().flops_per_second);
  }

  if (!cli.get_string("trace-out", "").empty() ||
      !cli.get_string("report-out", "").empty()) {
    if (jobs.empty()) {
      std::fprintf(stderr, "note: no task traces (engine did not run "
                           "MapReduce jobs); skipping trace/report export\n");
    } else {
      RunReport run_report =
          mr::build_run_report(jobs, cluster, &metrics, master_spans,
                               chaos.get(),
                               engine_active ? &engine_stats : nullptr, &fs);
      fill_kernel_report(&run_report.kernel, options.multiply.strategy,
                         multiply_plan.replication, multiply_plan.rounds,
                         kernel_delta);
      export_report(cli, run_report);
    }
  }

  const double residual = solving ? max_abs_diff(matmul(a, inverse), rhs)
                                  : inversion_residual(a, inverse);
  std::printf("residual %s : %.3g\n",
              solving ? "max|A*X - B|      " : "max|I - A*Ainv|", residual);
  std::printf("simulated time           : %s on %d nodes\n",
              format_duration(report.sim_seconds).c_str(), nodes);
  std::printf("data moved               : %s read, %s written\n",
              format_bytes(report.io.bytes_read).c_str(),
              format_bytes(report.io.bytes_written).c_str());
  if (chaos) {
    const RecoveryStats rec = chaos->stats();
    int recomputed = 0;
    for (const mr::JobResult& job : jobs) recomputed += job.tasks_recomputed;
    std::printf("chaos recovery           : %d node(s) killed, %d task(s) "
                "recomputed, %s re-replicated, %d block(s) lost\n",
                rec.nodes_killed, recomputed,
                format_bytes(rec.re_replicated_bytes).c_str(),
                rec.blocks_lost);
    if (rec.ec_cells_reconstructed > 0) {
      std::printf("ec reconstruction        : %d cell(s) (%s) decoded back "
                  "from surviving stripe cells\n",
                  rec.ec_cells_reconstructed,
                  format_bytes(rec.ec_reconstructed_bytes).c_str());
    }
    if (rec.partitions_recomputed > 0) {
      std::printf("lineage recovery         : %d partition(s) (%s) rebuilt "
                  "in %d wave(s), %.3g s simulated recompute\n",
                  rec.partitions_recomputed,
                  format_bytes(rec.lineage_recomputed_bytes).c_str(),
                  rec.lineage_waves, rec.lineage_recompute_seconds);
    }
    const IntegrityStats integrity = fs.integrity_stats();
    if (integrity.corruptions_injected > 0 || integrity.scrub_passes > 0) {
      std::printf("integrity                : %lld corruption(s) injected, "
                  "%lld detected, %lld repaired (%lld copy / %lld ec / %lld "
                  "lineage)\n",
                  static_cast<long long>(integrity.corruptions_injected),
                  static_cast<long long>(integrity.corruptions_detected),
                  static_cast<long long>(integrity.cells_repaired_copy +
                                         integrity.cells_repaired_ec +
                                         integrity.cells_repaired_lineage),
                  static_cast<long long>(integrity.cells_repaired_copy),
                  static_cast<long long>(integrity.cells_repaired_ec),
                  static_cast<long long>(integrity.cells_repaired_lineage));
    }
    if (integrity.scrub_passes > 0) {
      std::printf("scrubber                 : %lld pass(es), %s scanned, "
                  "%.3g s simulated scrub time\n",
                  static_cast<long long>(integrity.scrub_passes),
                  format_bytes(integrity.scrub_bytes_scanned).c_str(),
                  integrity.scrub_seconds);
    }
  }

  if (!output.empty()) {
    save_text_file(output, inverse);
    std::printf("%s written to %s\n", solving ? "solution X" : "inverse",
                output.c_str());
  }
  return residual < 1e-5 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const mri::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    if (dynamic_cast<const mri::InvalidArgument*>(&e) != nullptr) return 2;
    if (dynamic_cast<const mri::NumericalError*>(&e) != nullptr) return 3;
    if (dynamic_cast<const mri::DfsError*>(&e) != nullptr) return 4;
    return 1;
  }
}

// perfbench: wall-clock benchmark of the MapReduce inversion pipeline.
//
//   perfbench --workload dense|integrity|serve --seed N --seconds S
//             --trace 0|1 [--holdout]
//
// Runs one workload (see workloads.hpp) as a closed loop with one caller on
// one thread pool (four threads; one for integrity, see
// workload_pool_threads): an untimed warm-up operation, then timed operations
// until S seconds of operations have been measured (at least three). Every
// operation gets a freshly built world, and building it is the set-up time.
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same loop and
// reports the per-layer split instead: counter deltas around each operation,
// direct probes of Eq. 4, CRC32C, the RS codec, the flow model and the DFS
// file API, and one more operation on a single-thread pool. --holdout replaces the
// seed with one from a stream kept apart from the seeds used while tuning,
// so a claimed gain can be re-checked on inputs it was not written against.
//
// Outside the timed window the benchmark checks every operation: the
// inverse's residual max|I - A·A⁻¹| (NaN-propagating) against a fixed
// bound, byte-identical run reports and equal counters across same-seed
// operations, and the workload's own invariants. The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is non-zero when any check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "matrix/generate.hpp"
#include "probes.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

using perfbench::OpResult;
using perfbench::Workload;

constexpr std::size_t kCapacityThreads = 4;  // the CLI's pool size
constexpr std::size_t kMinTimedOps = 3;
// Worlds built per operation; each build is one set-up sample, and the last
// one runs the operation. Repeating keeps the sub-millisecond serve set-up
// from resting on a handful of samples.
constexpr int kSetupBuilds = 3;
constexpr double kResidualBound = 1e-8;
constexpr int kServeResidualSamples = 6;
constexpr std::uint64_t kHoldoutStream = 0x686f6c646f7574;  // "holdout"
// Probe cell size when the workload verifies no cells (dense, serve).
constexpr std::size_t kDefaultCellBytes = 64 << 10;

struct Args {
  Workload workload = Workload::kDense;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool holdout = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--holdout") {
      args->holdout = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = perfbench::parse_workload(value, &args->workload);
      if (!have_workload) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

// ---- operations and checks ------------------------------------------------

struct Attempt {
  std::optional<OpResult> op;  // empty when the operation threw
  bool ok = false;
  std::string failure;
};

struct Run {
  Workload workload;
  std::uint64_t seed;
  std::vector<double> setup_s;  // one per world built
  Attempt warmup;
  std::vector<Attempt> timed;
  std::optional<Attempt> single_thread;  // traced run only
  double peak_rss_mb = 0.0;
  int ops = 0;
};

bool same_counters(const OpResult& a, const OpResult& b) {
  return a.kernel.gemm_calls == b.kernel.gemm_calls &&
         a.kernel.trsm_calls == b.kernel.trsm_calls &&
         a.kernel.flops == b.kernel.flops && a.counters == b.counters &&
         a.dfs_io == b.dfs_io &&
         a.integrity.corruptions_injected == b.integrity.corruptions_injected &&
         a.integrity.corruptions_detected == b.integrity.corruptions_detected &&
         a.integrity.scrub_passes == b.integrity.scrub_passes &&
         a.admitted == b.admitted && a.rejected == b.rejected &&
         a.sim_latencies == b.sim_latencies;
}

bool same_inverse(const mri::Matrix& a, const mri::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.data().empty() ||
          std::memcmp(a.data().data(), b.data().data(),
                      a.data().size() * sizeof(double)) == 0);
}

// Invariants one operation must satisfy on its own.
std::string check_invariants(Workload workload, const OpResult& op) {
  char buf[256];
  if (!(op.sim_makespan_s > 0.0) || !std::isfinite(op.sim_makespan_s)) {
    return "non-positive simulated makespan";
  }
  if (workload == Workload::kIntegrity) {
    const auto& in = op.integrity;
    const std::int64_t repaired = in.cells_repaired_copy +
                                  in.cells_repaired_ec +
                                  in.cells_repaired_lineage;
    if (repaired > in.corruptions_detected ||
        in.corruptions_detected > in.corruptions_injected) {
      std::snprintf(buf, sizeof buf,
                    "integrity counters out of order: %lld repaired, %lld "
                    "detected, %lld injected",
                    static_cast<long long>(repaired),
                    static_cast<long long>(in.corruptions_detected),
                    static_cast<long long>(in.corruptions_injected));
      return buf;
    }
    if (op.chaos.nodes_killed != 1) return "the node kill did not fire";
  }
  if (workload == Workload::kServe) {
    if (op.admitted + op.rejected != op.submitted || op.admitted == 0) {
      std::snprintf(buf, sizeof buf, "%d admitted + %d rejected != %d submitted",
                    op.admitted, op.rejected, op.submitted);
      return buf;
    }
    for (double latency : op.sim_latencies) {
      if (!(latency > 0.0) || !std::isfinite(latency)) {
        return "non-positive request latency";
      }
    }
  }
  return "";
}

// Re-inverts a sample of served requests outside the service with the same
// options and checks their residuals (the service keeps no inverses).
std::string check_served_residuals(const OpResult& op, mri::ThreadPool* pool) {
  const std::size_t n = op.completed.size();
  for (int s = 0; s < kServeResidualSamples && n > 0; ++s) {
    const auto& r = op.completed[static_cast<std::size_t>(s) * n /
                                 kServeResidualSamples];
    const int nodes = perfbench::workload_nodes(Workload::kServe);
    mri::Cluster cluster(nodes, mri::CostModel::ec2_medium());
    mri::dfs::Dfs fs(nodes);
    mri::core::MapReduceInverter inverter(&cluster, &fs, pool);
    mri::core::InversionOptions options = perfbench::serve_inversion_options();
    if (r.nb > 0) options.nb = r.nb;
    const mri::Matrix a = mri::random_matrix(r.order, r.seed);
    const double res = perfbench::residual(a, inverter.invert(a, options).inverse);
    if (!(res < kResidualBound)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "served request (order %lld) residual %.3g",
                    static_cast<long long>(r.order), res);
      return buf;
    }
  }
  return "";
}

// Builds a fresh world (timed as set-up), runs one operation in it, and
// checks its own invariants; `reference` (the warm-up) is the operation it
// must reproduce exactly. The warm-up itself gets the residual check.
Attempt attempt(Run& run, mri::ThreadPool* pool, const Attempt* reference) {
  Attempt a;
  try {
    std::unique_ptr<perfbench::World> world;
    for (int b = 0; b < kSetupBuilds; ++b) {
      world.reset();  // tear down outside the timed build
      const double t0 = perfbench::wall_now();
      world = perfbench::make_world(run.workload, run.seed, pool);
      run.setup_s.push_back(perfbench::wall_now() - t0);
    }
    a.op = perfbench::run_op(run.workload, *world);
    a.failure = check_invariants(run.workload, *a.op);
    if (a.failure.empty() && reference == nullptr) {
      if (run.workload == Workload::kServe) {
        a.failure = check_served_residuals(*a.op, pool);
      } else {
        const double res = perfbench::residual(world->a, a.op->inverse);
        if (!(res < kResidualBound)) {
          char buf[96];
          std::snprintf(buf, sizeof buf, "residual %.3g over bound %.0e", res,
                        kResidualBound);
          a.failure = buf;
        }
      }
    }
  } catch (const std::exception& e) {
    a.op.reset();
    a.failure = std::string("exception: ") + e.what();
  }
  if (a.failure.empty() && reference != nullptr) {
    if (!reference->ok) {
      a.failure = "no checked reference operation to compare against";
    } else {
      const OpResult& ref = *reference->op;
      if (a.op->report_json != ref.report_json) {
        a.failure = "run report differs from the same-seed warm-up";
      } else if (a.op->sim_makespan_s != ref.sim_makespan_s ||
                 !same_counters(*a.op, ref)) {
        a.failure = "makespan or counters differ from the same-seed warm-up";
      } else if (!same_inverse(a.op->inverse, ref.inverse)) {
        a.failure = "inverse differs from the same-seed warm-up";
      }
    }
  }
  a.ok = a.failure.empty();
  if (a.op) {
    std::printf("op %d: %.4f s wall, %.4f s cpu%s\n", run.ops, a.op->wall_s,
                a.op->cpu_s, a.ok ? "" : " (failed)");
    if (reference != nullptr) {
      // Only the reference's outputs are compared against; drop the rest.
      a.op->inverse = mri::Matrix();
      a.op->report_json = std::string();
      a.op->completed.clear();
    }
  }
  ++run.ops;
  if (!a.ok) {
    std::fprintf(stderr, "perfbench: %s operation failed: %s\n",
                 perfbench::workload_name(run.workload), a.failure.c_str());
  }
  return a;
}

void run_loop(Run& run, mri::ThreadPool* pool, double seconds) {
  run.warmup = attempt(run, pool, nullptr);
  double measured = 0.0;
  while (run.timed.size() < kMinTimedOps || measured < seconds) {
    run.timed.push_back(attempt(run, pool, &run.warmup));
    if (run.timed.back().op) measured += run.timed.back().op->wall_s;
    else measured += seconds / kMinTimedOps;  // a failing op still ends
  }
  run.peak_rss_mb = perfbench::peak_rss_mb();
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

template <typename F>
std::vector<double> over_timed(const Run& run, F field) {
  std::vector<double> values;
  for (const Attempt& a : run.timed) {
    if (a.ok) values.push_back(field(*a.op));
  }
  return values;
}

// Requests an attempt stands for: one inversion, or every admitted request
// of a replay (admission rejections are simulated behaviour, not failures).
struct Tally {
  long attempted = 0;
  long failed = 0;
};

Tally tally(const Run& run) {
  Tally t;
  auto add = [&](const Attempt& a) {
    if (run.workload != Workload::kServe) {
      ++t.attempted;
      if (!a.ok) ++t.failed;
      return;
    }
    const long admitted = a.op ? a.op->admitted : 1;
    t.attempted += admitted;
    t.failed += a.ok ? a.op->unrecoverable : admitted;
  };
  add(run.warmup);
  for (const Attempt& a : run.timed) add(a);
  if (run.single_thread) add(*run.single_thread);
  return t;
}

std::vector<Metric> end_to_end(const Run& run) {
  const auto wall = over_timed(run, [](const OpResult& o) { return o.wall_s; });
  const auto cpu = over_timed(run, [](const OpResult& o) { return o.cpu_s; });
  const auto rate = over_timed(run, [](const OpResult& o) {
    return static_cast<double>(o.sim_latencies.size()) / o.invert_s;
  });
  std::vector<Metric> m;
  m.push_back({"setup_s", perfbench::median(run.setup_s), "s",
               run.setup_s.size()});
  m.push_back({"run_s.p50", perfbench::median(wall), "s", wall.size()});
  m.push_back({"cpu_s.p50", perfbench::median(cpu), "s", cpu.size()});
  m.push_back({"requests_per_s", perfbench::median(rate), "1/s", rate.size()});
  m.push_back({"peak_rss_mb", run.peak_rss_mb, "MB", 1});
  return m;
}

// The simulated clock's end-to-end numbers: deterministic for a seed (and,
// on dense, for every seed), so they carry no wall-clock noise bound.
std::vector<Metric> simulated(const Run& run) {
  if (!run.warmup.ok) return {};
  const OpResult& ref = *run.warmup.op;
  return {{"sim_makespan_s", ref.sim_makespan_s, "sim_s", 1},
          {"sim_p99_s", perfbench::quantile(ref.sim_latencies, 0.99), "sim_s",
           ref.sim_latencies.size()}};
}

// The traced run's split of one operation by layer. Runs the single-thread
// operation and the layer probes, so it comes after the timed loop.
std::vector<Metric> per_layer(Run& run, const perfbench::MachineFacts& facts) {
  if (!run.warmup.ok) return {};
  const OpResult& ref = *run.warmup.op;
  auto med = [&](auto field) { return perfbench::median(over_timed(run, field)); };
  const std::size_t n_timed =
      over_timed(run, [](const OpResult& o) { return o.wall_s; }).size();
  auto counter = [&](const char* name) {
    const auto it = ref.counters.find(name);
    return it == ref.counters.end() ? 0.0 : static_cast<double>(it->second);
  };

  // common: the same operation on a single-thread pool.
  {
    mri::ThreadPool single(1);
    run.single_thread = attempt(run, &single, &run.warmup);
  }
  const double invert_s = med([](const OpResult& o) { return o.invert_s; });
  const double invert_1 =
      run.single_thread->ok ? run.single_thread->op->invert_s : 0.0;

  // linalg: scalar Eq. 4 at the workload's order(s) on its m0 mappers.
  const int m0 = perfbench::workload_nodes(run.workload);
  double eq4_est = 0.0, eq4_flops = 0.0;
  std::map<mri::Index, int> orders;
  if (run.workload == Workload::kServe) {
    for (const auto& r : ref.completed) ++orders[r.order];
  } else {
    orders[ref.inverse.rows()] = 1;
  }
  for (const auto& [order, count] : orders) {
    const perfbench::Eq4Probe p = perfbench::probe_eq4(order, m0, run.seed);
    eq4_est += count * p.seconds;
    eq4_flops += count * p.flops;
  }

  // dfs/integrity and dfs/ec: probes at the workload's mean verified cell.
  const auto& in = ref.integrity;
  const std::size_t cell =
      in.cells_verified > 0
          ? static_cast<std::size_t>(in.bytes_verified /
                                     static_cast<std::uint64_t>(in.cells_verified))
          : kDefaultCellBytes;
  const double crc_gbps = perfbench::probe_crc_gbps(cell);
  // Bytes that really went through crc32c: the write path (checksummed
  // minus verified) plus every scrubbed copy. EC read verification is
  // charged as checksum CPU by the DFS but computes no CRC.
  const double crc_bytes =
      static_cast<double>(ref.dfs_io.bytes_checksummed - in.bytes_verified +
                          in.scrub_bytes_scanned);
  const double crc_est = crc_bytes / (crc_gbps * 1e9);
  const perfbench::EcProbe ec = perfbench::probe_ec(cell);
  // EC repairs of corrupt cells are bookkeeping (the payload was never
  // mutated), so only degraded reads and node-loss rebuilds really decode.
  double decoded = static_cast<double>(ref.dfs_io.bytes_reconstructed);
  for (const auto& repair : in.repairs) {
    if (std::strcmp(repair.kind, "ec") == 0) decoded -= static_cast<double>(repair.bytes);
  }
  const double ec_est =
      static_cast<double>(ref.dfs_io.bytes_parity) / (ec.encode_gbps * 1e9) +
      decoded / (ec.decode_gbps * 1e9);
  std::printf("probe cell size: %zu B (L2 %ld KiB per core, L3 %ld KiB)\n",
              cell, facts.l2_bytes_per_core >> 10, facts.l3_bytes >> 10);

  const double busy = med([](const OpResult& o) { return o.kernel.seconds; });
  const double build = med([](const OpResult& o) { return o.build_s; });
  const double json = med([](const OpResult& o) { return o.json_s; });
  const double trace = med([](const OpResult& o) { return o.trace_s; });
  const double cpu_s = med([](const OpResult& o) { return o.cpu_s; });
  const double gflop = static_cast<double>(ref.kernel.flops) * 1e-9;
  const std::size_t one = 1;
  return {
      {"core.invert_s", invert_s, "s", n_timed},
      {"core.sys_cpu_s", med([](const OpResult& o) { return o.sys_s; }), "s", n_timed},
      {"core.unattributed_cpu_s",
       cpu_s - (busy + eq4_est + crc_est + ec_est + build + json + trace), "s",
       n_timed},
      {"kernel.gemm_calls", static_cast<double>(ref.kernel.gemm_calls), "count", one},
      {"kernel.trsm_calls", static_cast<double>(ref.kernel.trsm_calls), "count", one},
      {"kernel.gflop", gflop, "GFLOP", one},
      {"kernel.busy_s", busy, "s", n_timed},
      {"kernel.gflops", busy > 0.0 ? gflop / busy : 0.0, "GFLOP/s", n_timed},
      {"eq4.probe_gflops", eq4_est > 0.0 ? eq4_flops / eq4_est * 1e-9 : 0.0,
       "GFLOP/s", orders.size()},
      {"eq4.est_s", eq4_est, "s", orders.size()},
      {"pool.speedup", invert_1 > 0.0 ? invert_1 / invert_s : 0.0, "x", one},
      {"dfs.bytes_read", static_cast<double>(ref.dfs_io.bytes_read), "B", one},
      {"dfs.bytes_written", static_cast<double>(ref.dfs_io.bytes_written), "B", one},
      {"dfs.bytes_transferred", static_cast<double>(ref.dfs_io.bytes_transferred), "B", one},
      {"dfs.small_file_ops_per_s", perfbench::probe_dfs_small_files(), "1/s", one},
      {"crc.bytes", crc_bytes, "B", one},
      {"crc.probe_gbps", crc_gbps, "GB/s", 3},
      {"crc.est_s", crc_est, "s", one},
      {"integrity.corruptions_injected", static_cast<double>(in.corruptions_injected), "count", one},
      {"integrity.corruptions_detected", static_cast<double>(in.corruptions_detected), "count", one},
      {"integrity.cells_repaired",
       static_cast<double>(in.cells_repaired_copy + in.cells_repaired_ec +
                           in.cells_repaired_lineage),
       "count", one},
      {"integrity.scrub_passes", static_cast<double>(in.scrub_passes), "count", one},
      {"ec.bytes_parity", static_cast<double>(ref.dfs_io.bytes_parity), "B", one},
      {"ec.bytes_reconstructed", static_cast<double>(ref.dfs_io.bytes_reconstructed), "B", one},
      {"ec.degraded_reads", static_cast<double>(ref.dfs_io.degraded_reads), "count", one},
      {"ec.encode_probe_gbps", ec.encode_gbps, "GB/s", 3},
      {"ec.decode_probe_gbps", ec.decode_gbps, "GB/s", 3},
      {"ec.est_s", ec_est, "s", one},
      {"net.cross_rack_bytes", static_cast<double>(ref.cross_rack_bytes), "B", one},
      {"net.flowsim_probe_s", perfbench::probe_flowsim_s(), "s", 15},
      {"mr.jobs", counter("jobs"), "count", one},
      {"mr.map_tasks", counter("map_tasks"), "count", one},
      {"mr.reduce_tasks", counter("reduce_tasks"), "count", one},
      {"mr.tasks_recomputed", counter("tasks_recomputed"), "count", one},
      {"mr.backup_attempts", counter("backup_attempts"), "count", one},
      {"report.build_s", build, "s", n_timed},
      {"report.json_s", json, "s", n_timed},
      {"report.trace_s", trace, "s", n_timed},
      {"report.json_bytes", static_cast<double>(ref.report_json.size()), "B", one},
      {"chaos.nodes_killed", static_cast<double>(ref.chaos.nodes_killed), "count", one},
      {"chaos.blocks_corrupted", static_cast<double>(ref.chaos.blocks_corrupted), "count", one},
      {"service.admitted", static_cast<double>(ref.admitted), "count", one},
      {"service.rejected", static_cast<double>(ref.rejected), "count", one},
      {"service.retries", static_cast<double>(ref.retries), "count", one},
      {"service.unrecoverable", static_cast<double>(ref.unrecoverable), "count", one},
      {"service.fairness_index", ref.fairness_index, "index", one},
  };
}

// ---- output -----------------------------------------------------------------

void print_table(const char* title, const std::vector<Metric>& metrics,
                 const char* workload) {
  std::printf("\n%s\n%-32s %18s %-8s %-10s %s\n", title, "metric", "value",
              "unit", "workload", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-32s %18.6g %-8s %-10s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), workload, m.samples);
  }
}

// The result line. A non-finite value is a benchmark bug: it prints as 0
// and marks the result incorrect.
void print_json(bool correct, const Tally& t, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) correct = correct && std::isfinite(m.value);
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed);
  out += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload dense|integrity|serve --seed N "
                 "--seconds S --trace 0|1 [--holdout]\n");
    return 2;
  }
  const std::uint64_t seed =
      args.holdout ? perfbench::derive_seed(args.seed, kHoldoutStream)
                   : args.seed;
  const char* workload = perfbench::workload_name(args.workload);
  const std::size_t pool_threads = perfbench::workload_pool_threads(args.workload);
  const perfbench::MachineFacts facts = perfbench::machine_facts();
  std::printf("perfbench: workload %s, seed %llu%s, %.0f s measured, trace %d\n",
              workload, static_cast<unsigned long long>(seed),
              args.holdout ? " (holdout)" : "", args.seconds, args.trace ? 1 : 0);
  std::printf("machine: nproc %d, cpu \"%s\", L2 %ld KiB/core, L3 %ld KiB, "
              "kernel backend %s, build %s, pool %zu threads\n",
              facts.nproc, facts.cpu_model.c_str(), facts.l2_bytes_per_core >> 10,
              facts.l3_bytes >> 10, facts.kernel_backend.c_str(),
              facts.build_type.c_str(), pool_threads);
  std::fflush(stdout);

  const double capacity_start = perfbench::parallel_capacity(kCapacityThreads);
  mri::ThreadPool pool(pool_threads);
  Run run{args.workload, seed, {}, {}, {}, {}, 0.0};
  run_loop(run, &pool, args.seconds);
  std::printf("parallel capacity: %.2f of %zu threads before the loop, %.2f "
              "after (4-thread vs 1-thread throughput of a fixed loop)\n",
              capacity_start, kCapacityThreads,
              perfbench::parallel_capacity(kCapacityThreads));
  const std::vector<Metric> e2e = end_to_end(run);
  const std::vector<Metric> sim = simulated(run);
  std::vector<Metric> layers;
  if (args.trace) {
    layers = sim;
    const std::vector<Metric> split = per_layer(run, facts);
    layers.insert(layers.end(), split.begin(), split.end());
  }

  const Tally t = tally(run);
  const auto wall = over_timed(run, [](const OpResult& o) { return o.wall_s; });
  std::vector<Metric> extra = {
      {"error_rate", t.attempted > 0 ? static_cast<double>(t.failed) / t.attempted : 1.0,
       "ratio", static_cast<std::size_t>(t.attempted)},
      {"run_s.max", wall.empty() ? 0.0 : perfbench::quantile(wall, 1.0), "s",
       wall.size()},
  };
  const double q = perfbench::highest_supported_quantile(wall.size());
  if (q > 0.5) {
    extra.push_back({"run_s.p" + std::to_string(static_cast<int>(q * 100)),
                     perfbench::quantile(wall, q), "s", wall.size()});
  }
  std::vector<Metric> table = e2e;
  table.insert(table.end(), sim.begin(), sim.end());
  table.insert(table.end(), extra.begin(), extra.end());
  print_table("end-to-end", table, workload);
  if (q <= 0.5) {
    std::printf("(%zu run_s samples leave no percentile above p50 with ten "
                "samples beyond it; run_s.max shown instead)\n",
                wall.size());
  }
  if (args.trace) print_table("per-layer (traced run)", layers, workload);

  const bool correct = t.failed == 0 && run.warmup.ok;
  print_json(correct, t, args.trace ? layers : e2e);
  return correct ? 0 : 1;
}

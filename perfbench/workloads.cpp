#include "workloads.hpp"

#include "mapreduce/trace_export.hpp"
#include "matrix/generate.hpp"
#include "net/topology.hpp"
#include "service/loadgen.hpp"
#include "sim/run_report.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

// Seed streams derived from the workload seed; the program only ever sees
// the generated inputs.
constexpr std::uint64_t kMatrixStream = 1;
constexpr std::uint64_t kChaosStream = 2;
constexpr std::uint64_t kLoadStream = 3;

constexpr int kDenseNodes = 8;
constexpr mri::Index kDenseOrder = 2048;
constexpr mri::Index kDenseNb = 128;

constexpr int kIntegrityNodes = 12;
constexpr mri::Index kIntegrityOrder = 1024;
constexpr mri::Index kIntegrityNb = 64;

constexpr int kServeNodes = 8;
constexpr mri::Index kServeNb = 32;

std::unique_ptr<mri::ChaosEngine> integrity_chaos(std::uint64_t seed) {
  mri::ChaosOptions options;
  options.seed = derive_seed(seed, kChaosStream);
  options.horizon_seconds = 86400.0;  // the CLI's --chaos-horizon default
  options.bitrot_rate = 0.01;
  auto chaos = std::make_unique<mri::ChaosEngine>(options);
  chaos->sample_bitrot(kIntegrityNodes);
  for (const auto& [node, at] : {std::pair{3, 10.0}, std::pair{7, 30.0}}) {
    mri::ChaosEvent corrupt;
    corrupt.kind = mri::ChaosEventKind::kCorruptBlock;
    corrupt.node = node;
    corrupt.at = at;
    chaos->add_event(corrupt);
  }
  mri::ChaosEvent kill;
  kill.kind = mri::ChaosEventKind::kKillNode;
  kill.node = 5;
  kill.at = 40.0;
  chaos->add_event(kill);
  return chaos;
}

mri::service::LoadGenOptions serve_load(std::uint64_t seed) {
  mri::service::LoadGenOptions load;
  load.seed = derive_seed(seed, kLoadStream);
  const double deadline = 900.0;
  // weight, requests, arrivals per simulated second, matrix order
  load.tenants = {
      {"gold", 2, 400, 0.0096, 96, 0, deadline},
      {"silver", 1, 300, 0.0072, 128, 0, deadline},
      {"bronze", 1, 300, 0.0072, 192, 0, deadline},
  };
  return load;
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kDense:
      return "dense";
    case Workload::kIntegrity:
      return "integrity";
    case Workload::kServe:
      return "serve";
  }
  return "?";
}

bool parse_workload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kDense, Workload::kIntegrity, Workload::kServe}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

int workload_nodes(Workload workload) {
  switch (workload) {
    case Workload::kDense:
      return kDenseNodes;
    case Workload::kIntegrity:
      return kIntegrityNodes;
    case Workload::kServe:
      return kServeNodes;
  }
  return 0;
}

std::size_t workload_pool_threads(Workload workload) {
  return workload == Workload::kIntegrity ? 1 : 4;
}

mri::core::InversionOptions serve_inversion_options() {
  mri::core::InversionOptions options;
  options.nb = kServeNb;
  options.work_dir = "/svc";
  return options;
}

std::unique_ptr<World> make_world(Workload workload, std::uint64_t seed,
                                  mri::ThreadPool* pool) {
  auto w = std::make_unique<World>();
  const int nodes = workload_nodes(workload);
  w->cluster =
      std::make_unique<mri::Cluster>(nodes, mri::CostModel::ec2_medium());

  mri::dfs::DfsConfig config;
  if (workload == Workload::kIntegrity) {
    config.storage_policy = mri::dfs::StoragePolicy::kErasureCoded;
    config.ec = mri::dfs::EcParams{6, 3};
    config.verify_checksums = true;
    config.scrub_interval_seconds = 20.0;
  }
  w->fs = std::make_unique<mri::dfs::Dfs>(nodes, config, &w->metrics);

  if (workload == Workload::kIntegrity) {
    mri::net::TopologyOptions topo;
    topo.kind = mri::net::TopologyKind::kRacked;
    topo.racks = 3;
    topo.oversubscription = 4.0;
    auto topology = std::make_shared<const mri::net::Topology>(
        nodes, w->cluster->cost_model().network_bandwidth, topo);
    w->cluster->set_topology(topology);
    w->fs->set_topology(topology);
    w->chaos = integrity_chaos(seed);
    w->fs->bind_chaos(w->chaos.get(),
                      w->cluster->cost_model().network_bandwidth,
                      &w->cluster->cost_model());
  }

  if (workload == Workload::kServe) {
    const mri::service::LoadGenOptions load = serve_load(seed);
    w->requests = mri::service::generate_load(load);
    mri::service::ServiceOptions options;
    options.shares = mri::service::shares_of(load);
    options.max_concurrent = 4;
    options.admission.max_queue_depth = 64;
    options.inversion = serve_inversion_options();
    w->service = std::make_unique<mri::service::InversionService>(
        w->cluster.get(), w->fs.get(), pool, options, nullptr, &w->metrics,
        nullptr);
    return w;
  }

  const mri::Index order =
      workload == Workload::kDense ? kDenseOrder : kIntegrityOrder;
  w->inversion.nb = workload == Workload::kDense ? kDenseNb : kIntegrityNb;
  w->a = mri::random_matrix(order, derive_seed(seed, kMatrixStream));
  w->inverter = std::make_unique<mri::core::MapReduceInverter>(
      w->cluster.get(), w->fs.get(), pool, nullptr, &w->metrics,
      w->chaos.get());
  return w;
}

namespace {

void fill_kernel_block(mri::KernelReport* kernel,
                       const mri::kernels::KernelCounters& delta) {
  kernel->backend =
      mri::kernels::backend_name(mri::kernels::default_backend());
  kernel->gemm_calls = delta.gemm_calls;
  kernel->trsm_calls = delta.trsm_calls;
  kernel->kernel_flops = delta.flops;
  kernel->kernel_seconds = delta.seconds;
  kernel->achieved_gflops = delta.gflops();
}

// The part of the operation after invert()/run(): JSON and Chrome trace
// into memory, as --report-out/--trace-out would write them.
void export_report(const mri::RunReport& report, OpResult* out) {
  const double t0 = wall_now();
  out->report_json = mri::run_report_json(report);
  const double t1 = wall_now();
  mri::chrome_trace_json(report);
  const double t2 = wall_now();
  out->json_s = t1 - t0;
  out->trace_s = t2 - t1;
}

void read_world(const World& world, const mri::RunReport& report,
                OpResult* out) {
  out->dfs_io = world.metrics.io_totals();
  out->counters = world.metrics.counters();
  out->integrity = world.fs->integrity_stats();
  if (world.chaos) out->chaos = world.chaos->stats();
  out->cross_rack_bytes = report.network.cross_rack_bytes;
}

OpResult run_inversion(World& world) {
  OpResult out;
  const CpuTime c0 = cpu_now();
  const mri::kernels::KernelCounters k0 = mri::kernels::counters_snapshot();
  const double t0 = wall_now();
  mri::core::MapReduceInverter::Result r =
      world.inverter->invert(world.a, world.inversion);
  const double t1 = wall_now();
  out.kernel = mri::kernels::counters_snapshot() - k0;
  mri::RunReport report = mri::mr::build_run_report(
      r.jobs, *world.cluster, &world.metrics, r.master_spans,
      world.chaos.get(), nullptr, world.fs.get());
  fill_kernel_block(&report.kernel, out.kernel);
  const double t2 = wall_now();
  export_report(report, &out);
  const CpuTime c1 = cpu_now();
  out.wall_s = wall_now() - t0;
  out.cpu_s = c1.total() - c0.total();
  out.sys_s = c1.sys - c0.sys;
  out.invert_s = t1 - t0;
  out.build_s = t2 - t1;

  out.sim_makespan_s = r.report.sim_seconds;
  out.sim_latencies = {r.report.sim_seconds};
  out.submitted = out.admitted = 1;
  out.fairness_index = report.fairness_index;
  read_world(world, report, &out);
  out.inverse = std::move(r.inverse);
  return out;
}

OpResult run_serve(World& world) {
  OpResult out;
  const CpuTime c0 = cpu_now();
  const mri::kernels::KernelCounters k0 = mri::kernels::counters_snapshot();
  const double t0 = wall_now();
  mri::service::ServiceResult r = world.service->run(world.requests);
  const double t1 = wall_now();
  out.kernel = mri::kernels::counters_snapshot() - k0;
  fill_kernel_block(&r.report.kernel, out.kernel);
  export_report(r.report, &out);
  const CpuTime c1 = cpu_now();
  out.wall_s = wall_now() - t0;
  out.cpu_s = c1.total() - c0.total();
  out.sys_s = c1.sys - c0.sys;
  out.invert_s = t1 - t0;

  // run() builds its report internally; time the public re-aggregation of
  // the returned report as the report-building estimate.
  {
    mri::RunReport copy = r.report;
    const double b0 = wall_now();
    mri::aggregate_run_report(&copy);
    mri::aggregate_tenant_reports(&copy, r.stats);
    out.build_s = wall_now() - b0;
  }

  out.sim_makespan_s = r.makespan;
  out.submitted = r.submitted;
  out.admitted = r.admitted;
  out.rejected = r.rejected;
  out.retries = r.retries;
  out.unrecoverable = r.unrecoverable;
  out.fairness_index = r.report.fairness_index;
  // generate_load() returns requests in arrival order, the order of stats.
  for (std::size_t i = 0; i < r.stats.size() && i < world.requests.size();
       ++i) {
    const mri::RequestStat& s = r.stats[i];
    if (s.rejected || s.unrecoverable) continue;
    out.sim_latencies.push_back(s.finish - s.arrival);
    out.completed.push_back(world.requests[i]);
  }
  read_world(world, r.report, &out);
  return out;
}

}  // namespace

OpResult run_op(Workload workload, World& world) {
  return workload == Workload::kServe ? run_serve(world)
                                      : run_inversion(world);
}

}  // namespace perfbench

// The benchmark's three workloads and the one operation each repeats.
//
//   dense      one Hadoop-engine inversion of a random order-2048 matrix
//              (nb 128, 8 nodes, replication 3, flat network, no chaos):
//              GEMM and scalar Eq. 4 carry the time; CRC32C, GF(2^8) and the
//              flow model do no work.
//   integrity  an order-1024 inversion (nb 64) on 12 racked nodes (3 racks,
//              4:1) with RS(6,3) storage, checksum verification, a scrubber
//              every 20 simulated s, seeded bit-rot, two explicit block
//              corruptions and a node kill: CRC32C, GF(2^8), read-repair,
//              recovery and the flow model carry the time.
//   serve      about a thousand small inversions replayed through the
//              multi-tenant InversionService: DFS namespace and small-file
//              paths, scheduling, allocation and report building.
//
// Every operation runs in a fresh World built from the workload seed, so two
// same-seed operations start from identical state and must produce
// byte-identical run reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/inverter.hpp"
#include "core/options.hpp"
#include "dfs/dfs.hpp"
#include "linalg/kernels/kernel.hpp"
#include "matrix/matrix.hpp"
#include "service/service.hpp"
#include "sim/chaos.hpp"
#include "sim/cluster.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

enum class Workload { kDense, kIntegrity, kServe };

const char* workload_name(Workload workload);
bool parse_workload(std::string_view name, Workload* out);

/// Simulated cluster size of a workload (m0, the final job's mapper count).
int workload_nodes(Workload workload);

/// Worker threads of the pool a workload runs on: 4 (the CLI's pool size),
/// except integrity, which runs on one. With concurrent readers the EC read
/// path decides whether a stripe with a corrupt cell is read degraded by
/// racing its own read-repair, so same-seed integrity runs on four threads
/// can differ in degraded-read counts and simulated time.
std::size_t workload_pool_threads(Workload workload);

/// Everything one operation mutates. Not movable: the DFS and the inverter
/// hold pointers into it.
struct World {
  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  mri::MetricsRegistry metrics;
  std::unique_ptr<mri::Cluster> cluster;
  std::unique_ptr<mri::dfs::Dfs> fs;
  std::unique_ptr<mri::ChaosEngine> chaos;
  mri::core::InversionOptions inversion;
  std::unique_ptr<mri::core::MapReduceInverter> inverter;  // dense, integrity
  mri::Matrix a;                                           // dense, integrity
  std::unique_ptr<mri::service::InversionService> service;  // serve
  std::vector<mri::service::InversionRequest> requests;     // serve
};

/// Generates the workload's inputs from `seed` and builds its cluster, DFS,
/// chaos engine and inverter or service on `pool`.
std::unique_ptr<World> make_world(Workload workload, std::uint64_t seed,
                                  mri::ThreadPool* pool);

/// One operation and everything the benchmark reads off it.
struct OpResult {
  /// The operation as a CLI user with --report-out pays for it: invert()
  /// (run() for serve), then the run report, its JSON and the Chrome trace.
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process user + sys over the same window
  double sys_s = 0.0;
  double invert_s = 0.0;  // invert() / run() alone
  /// build_run_report (serve: re-aggregation of the returned report,
  /// timed after the window because run() builds it internally).
  double build_s = 0.0;
  double json_s = 0.0;
  double trace_s = 0.0;
  std::string report_json;

  double sim_makespan_s = 0.0;
  /// Simulated arrival-to-finish latency of every completed request.
  std::vector<double> sim_latencies;
  int submitted = 0;
  int admitted = 0;
  int rejected = 0;
  int retries = 0;
  int unrecoverable = 0;
  double fairness_index = 1.0;

  mri::kernels::KernelCounters kernel;
  mri::IoStats dfs_io;
  std::map<std::string, std::uint64_t> counters;
  mri::dfs::IntegrityStats integrity;
  mri::RecoveryStats chaos;
  std::uint64_t cross_rack_bytes = 0;

  mri::Matrix inverse;  // dense, integrity
  /// serve: the admitted requests that finished, in arrival order.
  std::vector<mri::service::InversionRequest> completed;
};

/// Runs one operation in `world` (which it consumes: build a fresh World
/// for the next one).
OpResult run_op(Workload workload, World& world);

/// Options a serve request is inverted with, for re-checking a served
/// request outside the service.
mri::core::InversionOptions serve_inversion_options();

}  // namespace perfbench

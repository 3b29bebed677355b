// Pins the DFS -> matrix data path end to end: for each configuration the
// inverse's bytes, every IoStats total (the global metrics and the run's own
// sum), the run-report JSON and the Chrome trace must equal values captured
// from a build that copied every block through intermediate matrices. A
// change to how bytes move between the DFS and the matrices, or to how the
// report is assembled, must leave all of them as they are.
//
//  (a) order 300, nb 32, 4 flat nodes, replicated storage;
//  (b) 12 racked nodes (3 racks, 4:1), RS(6,3) stripes, checksums verified
//      with a scrubber, one corrupt block and one node kill;
//  (c) order 512 on the spin engine with a 1 MiB cache (memory tier, tier
//      listener, evictions and spills) and one node kill (lineage
//      recompute);
//  (d) the sample request trace served on 12 flat nodes with RS(6,3)
//      stripes, a 64 MiB hot-block cache and one node kill: two tenants,
//      request lanes, an EC reconstruction and hot-cache hits in one report
//      (the service writes no single inverse, so none is pinned);
//  (e) (b)'s cluster and stripes with verification off, one data cell of
//      the input matrix corrupted before the run and one node kill: the
//      flipped bytes are served to the partition mappers and reach the
//      inverse, whose residual is then large.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/thread_pool.hpp"
#include "core/inverter.hpp"
#include "dfs/dfs.hpp"
#include "dfs/path.hpp"
#include "linalg/kernels/kernel.hpp"
#include "mapreduce/trace_export.hpp"
#include "matrix/dfs_io.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "net/topology.hpp"
#include "service/loadgen.hpp"
#include "service/service.hpp"
#include "sim/chaos.hpp"
#include "sim/run_report.hpp"

namespace mri::core {
namespace {

/// FNV-1a (the DFS's path hash) over raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t size) {
  return dfs::path_hash(
      std::string_view(static_cast<const char*>(data), size));
}

/// Every field of an IoStats, in declaration order.
std::array<std::uint64_t, 13> fields(const IoStats& io) {
  return {io.bytes_written,       io.bytes_read,
          io.bytes_transferred,   io.bytes_replicated,
          io.bytes_written_memory, io.bytes_read_memory,
          io.bytes_spilled,       io.bytes_parity,
          io.bytes_reconstructed, io.degraded_reads,
          io.bytes_checksummed,   io.mults,
          io.adds};
}

struct Pinned {
  std::uint64_t inverse_hash = 0;
  std::array<std::uint64_t, 13> dfs_totals{};  // the metrics registry
  std::array<std::uint64_t, 13> run_io{};      // the run's task + master sum
  std::uint64_t report_hash = 0;
  std::size_t report_bytes = 0;
  std::uint64_t trace_hash = 0;
  // What the configuration is there to exercise (checked, not pinned).
  double residual = 0.0;
  int nodes_killed = 0;
  std::int64_t corruptions_detected = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t tenants = 0;
  std::size_t request_lanes = 0;
  std::size_t reconstructions = 0;
  std::uint64_t hot_cache_hits = 0;
};

enum class Config { kFlat, kRackedEc, kSpin, kServed, kRackedEcUnverified };

/// Fills the report's pinned hashes and the fields every configuration
/// checks.
void pin_report(const RunReport& report, Pinned* p) {
  const std::string json = run_report_json(report);
  p->report_hash = fnv1a(json.data(), json.size());
  p->report_bytes = json.size();
  const std::string trace = chrome_trace_json(report);
  p->trace_hash = fnv1a(trace.data(), trace.size());
  p->nodes_killed = report.recovery.nodes_killed;
  p->corruptions_detected = report.integrity.corruptions_detected;
  p->tenants = report.tenants.size();
  p->request_lanes = report.request_spans.size();
  p->reconstructions = report.storage.reconstructions.size();
}

/// examples/sample_requests.trace, as `mrinvert_cli --serve` replays it.
constexpr const char* kRequestTrace = R"(
tenant alice 2
tenant bob 1
request alice 0.0  96 11
request alice 0.0  96 12 5
request alice 0.0  96 13
request bob   5.0 128 21
request bob  20.0  96 22 0 600.0
request bob  40.0  64 23
)";

/// Configuration (d), with the service options `mrinvert_cli --serve` uses
/// by default.
Pinned run_served() {
  constexpr int kNodes = 12;
  MetricsRegistry metrics;
  Cluster cluster(kNodes, CostModel::ec2_medium());
  dfs::DfsConfig dfs_config;
  dfs_config.storage_policy = dfs::StoragePolicy::kErasureCoded;
  dfs_config.ec = dfs::EcParams{6, 3};
  dfs_config.hot_cache_bytes = 64ull << 20;
  dfs::Dfs fs(kNodes, dfs_config, &metrics);
  ChaosOptions chaos_options;
  chaos_options.horizon_seconds = 86400.0;
  ChaosEngine chaos(chaos_options);
  ChaosEvent kill;
  kill.kind = ChaosEventKind::kKillNode;
  kill.at = 60.0;
  kill.node = 5;
  chaos.add_event(kill);
  fs.bind_chaos(&chaos, cluster.cost_model().network_bandwidth,
                &cluster.cost_model());
  ThreadPool pool(2);
  const service::RequestTrace trace =
      service::parse_request_trace(kRequestTrace);
  service::ServiceOptions options;
  options.shares = trace.shares;
  options.inversion.nb = 256;
  options.inversion.work_dir = "/svc";
  service::InversionService svc(&cluster, &fs, &pool, options, nullptr,
                                &metrics, &chaos);
  const service::ServiceResult r = svc.run(trace.requests);

  Pinned p;
  p.dfs_totals = fields(metrics.io_totals());
  p.run_io = fields(r.report.io);
  pin_report(r.report, &p);
  p.hot_cache_hits = fs.hot_cache_stats().hits;
  return p;
}

Pinned run(Config config) {
  if (config == Config::kServed) return run_served();
  const bool racked =
      config == Config::kRackedEc || config == Config::kRackedEcUnverified;
  const int nodes = racked ? 12 : 4;
  const Index order = racked ? 240 : config == Config::kSpin ? 512 : 300;
  MetricsRegistry metrics;
  Cluster cluster(nodes, CostModel::ec2_medium());
  dfs::DfsConfig dfs_config;
  if (racked) {
    dfs_config.storage_policy = dfs::StoragePolicy::kErasureCoded;
    dfs_config.ec = dfs::EcParams{6, 3};
  }
  if (config == Config::kRackedEc) {
    dfs_config.verify_checksums = true;
    dfs_config.scrub_interval_seconds = 20.0;
  }
  dfs::Dfs fs(nodes, dfs_config, &metrics);
  if (racked) {
    net::TopologyOptions topo;
    topo.kind = net::TopologyKind::kRacked;
    topo.racks = 3;
    topo.oversubscription = 4.0;
    auto topology = std::make_shared<const net::Topology>(
        nodes, cluster.cost_model().network_bandwidth, topo);
    cluster.set_topology(topology);
    fs.set_topology(topology);
  }
  ChaosOptions chaos_options;
  chaos_options.seed = 7;
  chaos_options.horizon_seconds = 86400.0;
  ChaosEngine chaos(chaos_options);
  ChaosEvent kill;
  kill.kind = ChaosEventKind::kKillNode;
  kill.at = 40.0;
  kill.node = racked ? 5 : 2;
  chaos.add_event(kill);
  if (config == Config::kRackedEc) {
    ChaosEvent corrupt;
    corrupt.kind = ChaosEventKind::kCorruptBlock;
    corrupt.at = 10.0;
    corrupt.node = 3;
    chaos.add_event(corrupt);
  }
  const bool chaotic = config != Config::kFlat;
  if (chaotic) {
    fs.bind_chaos(&chaos, cluster.cost_model().network_bandwidth,
                  &cluster.cost_model());
  }
  ThreadPool pool(2);
  MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics,
                             chaotic ? &chaos : nullptr);
  InversionOptions options;
  options.nb = racked ? 48 : 32;
  if (config == Config::kSpin) {
    options.engine = EngineKind::kSpin;
    options.cache_capacity_bytes = 1ull << 20;
  }
  const Matrix a = random_matrix(order, /*seed=*/5);
  const std::string input = dfs::join(options.work_dir, "a.bin");
  write_matrix(fs, input, a);
  if (config == Config::kRackedEcUnverified) {
    // A data cell past the header's (slot 0) on a node the kill spares.
    const std::vector<int> holders = fs.file_blocks(input).front().replicas;
    const int victim = holders[1] != kill.node ? holders[1] : holders[2];
    fs.corrupt_block(victim, /*at=*/0.0);
  }
  MapReduceInverter::Result r = inverter.invert_dfs(input, options);

  Pinned p;
  p.inverse_hash =
      fnv1a(r.inverse.data().data(), r.inverse.data().size_bytes());
  p.dfs_totals = fields(metrics.io_totals());
  p.run_io = fields(r.report.io);
  const RunReport report = mr::build_run_report(
      r.jobs, cluster, &metrics, r.master_spans, chaotic ? &chaos : nullptr,
      r.engine_active ? &r.engine_stats : nullptr, &fs);
  pin_report(report, &p);
  p.residual = inversion_residual(a, r.inverse);
  p.cache_evictions = r.engine_stats.cache.evictions;
  return p;
}

/// The values as the initializers below spell them.
std::string dump(const Pinned& p) {
  const auto list = [](const std::array<std::uint64_t, 13>& v) {
    std::string s = "{";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i == 0 ? "" : ", ") + std::to_string(v[i]);
    }
    return s + "}";
  };
  return "inverse_hash " + std::to_string(p.inverse_hash) + "ull, dfs_totals " +
         list(p.dfs_totals) + ", run_io " + list(p.run_io) +
         ", report_hash " + std::to_string(p.report_hash) +
         "ull, report_bytes " + std::to_string(p.report_bytes) +
         ", trace_hash " + std::to_string(p.trace_hash) + "ull";
}

void expect_pinned(Config config, const Pinned& want) {
  // The inverse's bits are the simd backend's (the same on its AVX-512 and
  // AVX2 paths); report and IoStats do not depend on the backend.
  const bool simd = kernels::backend_available(kernels::Backend::kSimd);
  const kernels::Backend before = kernels::default_backend();
  if (simd) kernels::set_default_backend(kernels::Backend::kSimd);
  const Pinned got = run(config);
  kernels::set_default_backend(before);
  SCOPED_TRACE(dump(got));
  if (config == Config::kRackedEcUnverified) {
    EXPECT_GT(got.residual, 1e-3) << "the flipped bytes must reach A⁻¹";
  } else {
    EXPECT_LT(got.residual, 1e-8);
  }
  EXPECT_EQ(got.nodes_killed, config == Config::kFlat ? 0 : 1);
  if (config == Config::kRackedEc) {
    EXPECT_GT(got.corruptions_detected, 0);
  }
  if (config == Config::kSpin) {
    EXPECT_GT(got.cache_evictions, 0u);
  }
  if (config == Config::kServed) {
    EXPECT_EQ(got.tenants, 2u);
    EXPECT_EQ(got.request_lanes, 6u);
    EXPECT_GT(got.reconstructions, 0u);
    EXPECT_GT(got.hot_cache_hits, 0u);
  }
  if (simd) {
    EXPECT_EQ(got.inverse_hash, want.inverse_hash);
  }
  EXPECT_EQ(got.dfs_totals, want.dfs_totals);
  EXPECT_EQ(got.run_io, want.run_io);
  EXPECT_EQ(got.report_bytes, want.report_bytes);
  EXPECT_EQ(got.report_hash, want.report_hash);
  EXPECT_EQ(got.trace_hash, want.trace_hash);
}

TEST(DataPathPin, FlatReplicated) {
  Pinned want;
  want.inverse_hash = 8202766475837590962ull;
  want.dfs_totals = {4672532, 9233484, 18578548, 9345064, 0, 0, 0,
                     0,       0,       0,        0,       0, 0};
  want.run_io = {3952504, 8503796, 16408804, 7905008, 0,        0,       0,
                 0,       0,       0,        0,       27089932, 27131898};
  want.report_hash = 6346906395502964613ull;
  want.report_bytes = 14230;
  want.trace_hash = 14831201793731653638ull;
  expect_pinned(Config::kFlat, want);
}

TEST(DataPathPin, RackedErasureCodedWithCorruptionAndKill) {
  Pinned want;
  want.inverse_hash = 10183753317623657463ull;
  want.dfs_totals = {2990190, 10551990, 15590246, 3987776, 0, 0, 0,
                     1495416, 175750,   0,        37113876, 0, 0};
  want.run_io = {2529352, 10077534, 13450782, 3373248,  0,        0,       0,
                 1264968, 0,        0,        19508664, 13881560, 13906760};
  want.report_hash = 13422354727219793776ull;
  want.report_bytes = 12704;
  want.trace_hash = 6315228394324830412ull;
  expect_pinned(Config::kRackedEc, want);
}

TEST(DataPathPin, SpinEngineOneMegabyteCacheWithKill) {
  Pinned want;
  want.inverse_hash = 5791274563606627851ull;
  want.dfs_totals = {4210780, 20697089, 31215828, 10518739, 10607544,
                     7825448, 2200040, 0, 0, 0, 0, 147456, 148736};
  want.run_io = {2113600, 16922460, 21149660, 4227200, 9380456, 7804920,
                 2200040, 0, 0, 0, 0, 134479776, 134602656};
  want.report_hash = 6509505626024433892ull;
  want.report_bytes = 22304;
  want.trace_hash = 6562743389141770354ull;
  expect_pinned(Config::kSpin, want);
}

TEST(DataPathPin, ServedRequestsWithEcKillAndHotCache) {
  Pinned want;
  want.dfs_totals = {2794548, 7616808, 11812480, 3727048, 0, 0, 0,
                     1397643, 78104,   0,        0,       0, 0};
  want.run_io = {1871872, 6432200, 8928504, 2496304, 0,       0,       0,
                 936114,  0,       0,       0,       3989408, 3989408};
  want.report_hash = 6052040649145744256ull;
  want.report_bytes = 10846;
  want.trace_hash = 1751143508667884576ull;
  expect_pinned(Config::kServed, want);
}

TEST(DataPathPin, RackedErasureCodedUnverifiedWithACorruptInputCell) {
  Pinned want;
  want.inverse_hash = 4664157733422032176ull;
  want.dfs_totals = {2990190, 10551990, 15589442, 3987776, 0, 0, 0,
                     1495416, 174946,   0,        0,        0, 0};
  want.run_io = {2529352, 10077534, 13450782, 3373248,  0,        0,       0,
                 1264968, 0,        0,        0,        13881560, 13906760};
  want.report_hash = 5754183941698534071ull;
  want.report_bytes = 11809;
  want.trace_hash = 12703951693873603616ull;
  expect_pinned(Config::kRackedEcUnverified, want);
}

}  // namespace
}  // namespace mri::core

// Pins the DFS -> matrix data path end to end: for three configurations the
// inverse's bytes, every IoStats total (the global metrics and the run's own
// sum) and the run-report JSON must equal values captured from a build that
// copied every block through intermediate matrices. A change to how bytes
// move between the DFS and the matrices must leave all of them as they are.
//
//  (a) order 300, nb 32, 4 flat nodes, replicated storage;
//  (b) 12 racked nodes (3 racks, 4:1), RS(6,3) stripes, checksums verified
//      with a scrubber, one corrupt block and one node kill;
//  (c) order 512 on the spin engine with a 1 MiB cache (memory tier, tier
//      listener, evictions and spills) and one node kill (lineage
//      recompute).
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
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "net/topology.hpp"
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
  // What the configuration is there to exercise (checked, not pinned).
  double residual = 0.0;
  int nodes_killed = 0;
  std::int64_t corruptions_detected = 0;
  std::uint64_t cache_evictions = 0;
};

enum class Config { kFlat, kRackedEc, kSpin };

Pinned run(Config config) {
  const bool racked = config == Config::kRackedEc;
  const int nodes = racked ? 12 : 4;
  const Index order =
      config == Config::kRackedEc ? 240 : config == Config::kSpin ? 512 : 300;
  MetricsRegistry metrics;
  Cluster cluster(nodes, CostModel::ec2_medium());
  dfs::DfsConfig dfs_config;
  if (racked) {
    dfs_config.storage_policy = dfs::StoragePolicy::kErasureCoded;
    dfs_config.ec = dfs::EcParams{6, 3};
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
  if (racked) {
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
  MapReduceInverter::Result r = inverter.invert(a, options);

  Pinned p;
  p.inverse_hash =
      fnv1a(r.inverse.data().data(), r.inverse.data().size_bytes());
  p.dfs_totals = fields(metrics.io_totals());
  p.run_io = fields(r.report.io);
  const RunReport report = mr::build_run_report(
      r.jobs, cluster, &metrics, r.master_spans, chaotic ? &chaos : nullptr,
      r.engine_active ? &r.engine_stats : nullptr, &fs);
  const std::string json = run_report_json(report);
  p.report_hash = fnv1a(json.data(), json.size());
  p.report_bytes = json.size();
  p.residual = inversion_residual(a, r.inverse);
  p.nodes_killed = report.recovery.nodes_killed;
  p.corruptions_detected = report.integrity.corruptions_detected;
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
         "ull, report_bytes " + std::to_string(p.report_bytes);
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
  EXPECT_LT(got.residual, 1e-8);
  EXPECT_EQ(got.nodes_killed, config == Config::kFlat ? 0 : 1);
  if (config == Config::kRackedEc) {
    EXPECT_GT(got.corruptions_detected, 0);
  }
  if (config == Config::kSpin) {
    EXPECT_GT(got.cache_evictions, 0u);
  }
  if (simd) {
    EXPECT_EQ(got.inverse_hash, want.inverse_hash);
  }
  EXPECT_EQ(got.dfs_totals, want.dfs_totals);
  EXPECT_EQ(got.run_io, want.run_io);
  EXPECT_EQ(got.report_bytes, want.report_bytes);
  EXPECT_EQ(got.report_hash, want.report_hash);
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
  expect_pinned(Config::kSpin, want);
}

}  // namespace
}  // namespace mri::core

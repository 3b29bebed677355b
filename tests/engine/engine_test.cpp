// Engine-layer tests (ISSUE 7): BlockCache eviction determinism, LineageGraph
// depth/wave planning, SpinEngine wired to a real Dfs (commit tracking, job-
// boundary spills, lineage recovery after a chaos node kill), the memory-tier
// IoStats accounting the engine relies on, and the satellite-1 regression
// that attempt timing and CostModel::memory_tier_seconds cannot drift apart.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dfs/dfs.hpp"
#include "engine/block_cache.hpp"
#include "engine/lineage.hpp"
#include "engine/spin_engine.hpp"
#include "mapreduce/scheduler.hpp"
#include "sim/chaos.hpp"
#include "sim/cost_model.hpp"
#include "sim/io_stats.hpp"

namespace mri {
namespace {

using engine::BlockCache;
using engine::LineageGraph;
using engine::LineageRecord;
using engine::SpinEngine;

// ---- BlockCache ------------------------------------------------------------

TEST(BlockCache, TouchCountsHitsOnlyWhenResident) {
  BlockCache cache(2, 0);
  cache.insert("/a", 0, 100, 1);
  EXPECT_TRUE(cache.resident("/a"));
  EXPECT_TRUE(cache.touch("/a", 2));
  EXPECT_FALSE(cache.touch("/missing", 2));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident_bytes, 100u);
}

TEST(BlockCache, EvictsLeastRecentEpochThenPathAscending) {
  BlockCache cache(1, 100);
  cache.insert("/b", 0, 60, 1);
  cache.insert("/a", 0, 60, 1);  // same epoch as /b: path breaks the tie
  cache.insert("/c", 0, 60, 2);
  // Node 0 holds 180 bytes against a 100-byte budget: evict /a then /b
  // (epoch 1 before epoch 2, ascending path within the epoch).
  const auto evicted = cache.collect_evictions();
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0].path, "/a");
  EXPECT_EQ(evicted[1].path, "/b");
  EXPECT_FALSE(cache.resident("/a"));
  EXPECT_TRUE(cache.resident("/c"));
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.resident_bytes(0), 60u);
}

TEST(BlockCache, TouchRefreshesRecency) {
  BlockCache cache(1, 100);
  cache.insert("/old", 0, 60, 1);
  cache.insert("/new", 0, 60, 2);
  cache.touch("/old", 3);  // now /new is the least recent
  const auto evicted = cache.collect_evictions();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].path, "/new");
  EXPECT_TRUE(cache.resident("/old"));
}

TEST(BlockCache, EraseDropsEntryWithoutCountingEviction) {
  BlockCache cache(1, 0);
  cache.insert("/a", 0, 100, 1);
  cache.erase("/a");
  EXPECT_FALSE(cache.resident("/a"));
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  cache.erase("/a");  // absent: no-op
}

TEST(BlockCache, UnlimitedCapacityNeverEvictsAndTracksPeak) {
  BlockCache cache(2, 0);
  cache.insert("/a", 0, 1'000'000, 1);
  cache.insert("/b", 1, 2'000'000, 1);
  EXPECT_TRUE(cache.collect_evictions().empty());
  EXPECT_EQ(cache.stats().peak_resident_bytes, 3'000'000u);
  cache.erase("/b");
  // The peak is a high-water mark; erasing doesn't lower it.
  EXPECT_EQ(cache.stats().peak_resident_bytes, 3'000'000u);
  EXPECT_EQ(cache.stats().resident_bytes, 1'000'000u);
}

// ---- LineageGraph ----------------------------------------------------------

LineageRecord record_with_inputs(std::vector<std::string> inputs,
                                 std::uint64_t size = 8) {
  LineageRecord rec;
  rec.producer_job = 1;
  rec.inputs = std::move(inputs);
  rec.size = size;
  return rec;
}

TEST(LineageGraph, DepthIsOnePlusMaxTrackedInputDepth) {
  LineageGraph graph;
  graph.record("/base", record_with_inputs({"/input/disk"}));
  graph.record("/mid", record_with_inputs({"/base", "/input/disk"}));
  graph.record("/top", record_with_inputs({"/mid", "/base"}));
  EXPECT_EQ(graph.get("/base").depth, 1);  // untracked inputs = base data
  EXPECT_EQ(graph.get("/mid").depth, 2);
  EXPECT_EQ(graph.get("/top").depth, 3);
  EXPECT_EQ(graph.size(), 3u);
}

TEST(LineageGraph, PlanWavesAscendingDepthDroppingUntracked) {
  LineageGraph graph;
  graph.record("/base/b", record_with_inputs({}));
  graph.record("/base/a", record_with_inputs({}));
  graph.record("/mid", record_with_inputs({"/base/a"}));
  graph.record("/top", record_with_inputs({"/mid"}));
  const auto waves = graph.plan_waves(
      {"/top", "/base/b", "/mid", "/base/a", "/disk/untracked"});
  ASSERT_EQ(waves.size(), 3u);
  EXPECT_EQ(waves[0], (std::vector<std::string>{"/base/a", "/base/b"}));
  EXPECT_EQ(waves[1], (std::vector<std::string>{"/mid"}));
  EXPECT_EQ(waves[2], (std::vector<std::string>{"/top"}));
}

TEST(LineageGraph, EraseAndMarkSpilled) {
  LineageGraph graph;
  graph.record("/a", record_with_inputs({}));
  EXPECT_TRUE(graph.get("/a").on_memory_tier);
  graph.mark_spilled("/a");
  EXPECT_FALSE(graph.get("/a").on_memory_tier);
  graph.erase("/a");
  EXPECT_FALSE(graph.tracked("/a"));
  EXPECT_THROW(graph.get("/a"), InvalidArgument);
}

// ---- Dfs memory-tier accounting (satellite: IoStats coverage) --------------

TEST(MemoryTierAccounting, MemoryWriteChargesOnlyMemoryBytes) {
  dfs::Dfs fs(4);
  IoStats io;
  {
    dfs::ScopedTransferLog task(1);
    auto w = fs.create("/mem/part", &io, dfs::StorageTier::kMemory);
    std::vector<double> payload(64, 1.5);
    w.write_doubles(payload);
    w.close();
  }
  EXPECT_EQ(io.bytes_written_memory, 64u * sizeof(double));
  EXPECT_EQ(io.bytes_written, 0u);
  EXPECT_EQ(io.bytes_replicated, 0u);
  EXPECT_EQ(io.bytes_transferred, 0u);
  EXPECT_EQ(fs.file_tier("/mem/part"), dfs::StorageTier::kMemory);
  // Single unreplicated copy on the writing task's node.
  const auto blocks = fs.file_blocks("/mem/part");
  ASSERT_EQ(blocks.size(), 1u);
  ASSERT_EQ(blocks[0].replicas.size(), 1u);
  EXPECT_EQ(blocks[0].replicas[0], 1);
}

TEST(MemoryTierAccounting, NodeLocalReadChargesMemoryBandwidthOnly) {
  dfs::Dfs fs(4);
  const std::vector<double> payload(32, 2.0);
  {
    dfs::ScopedTransferLog task(2);
    auto w = fs.create("/mem/part", nullptr, dfs::StorageTier::kMemory);
    w.write_doubles(payload);
    w.close();
  }
  IoStats local;
  {
    dfs::ScopedTransferLog task(2);  // same node: a cache hit
    EXPECT_EQ(fs.read_doubles("/mem/part", &local), payload);
  }
  EXPECT_EQ(local.bytes_read_memory, 32u * sizeof(double));
  EXPECT_EQ(local.bytes_read, 0u);
  EXPECT_EQ(local.bytes_transferred, 0u);

  IoStats remote;
  {
    dfs::ScopedTransferLog task(3);  // different node: pays the network fetch
    EXPECT_EQ(fs.read_doubles("/mem/part", &remote), payload);
  }
  EXPECT_EQ(remote.bytes_read_memory, 0u);
  EXPECT_EQ(remote.bytes_read, 32u * sizeof(double));
  EXPECT_EQ(remote.bytes_transferred, 32u * sizeof(double));
}

TEST(MemoryTierAccounting, SpillChargesSpilledBytesAndFlipsTier) {
  dfs::Dfs fs(4);
  {
    dfs::ScopedTransferLog task(0);
    auto w = fs.create("/mem/part", nullptr, dfs::StorageTier::kMemory);
    w.write_text("spill me to disk");
    w.close();
  }
  IoStats io;
  fs.spill_to_disk("/mem/part", &io);
  EXPECT_EQ(io.bytes_spilled, fs.file_size("/mem/part"));
  EXPECT_EQ(io.bytes_written, 0u);
  EXPECT_EQ(fs.file_tier("/mem/part"), dfs::StorageTier::kDisk);
  // Spilling a disk-tier file is a caller bug.
  EXPECT_THROW(fs.spill_to_disk("/mem/part"), InvalidArgument);
}

TEST(MemoryTierAccounting, SubtractionUnderflowChecksNewFields) {
  const auto underflows = [](auto set_field) {
    IoStats a, b;
    set_field(b);
    EXPECT_THROW(a -= b, InvalidArgument);
    IoStats c;
    set_field(c);
    c -= b;  // equal values subtract cleanly to zero
    EXPECT_EQ(c, IoStats{});
  };
  underflows([](IoStats& s) { s.bytes_written_memory = 1; });
  underflows([](IoStats& s) { s.bytes_read_memory = 1; });
  underflows([](IoStats& s) { s.bytes_spilled = 1; });
}

// ---- SpinEngine over a real Dfs --------------------------------------------

TEST(SpinEngine, MemoryCommitPopulatesCacheAndLineage) {
  dfs::Dfs fs(4);
  CostModel model;
  SpinEngine eng(&fs, nullptr, &model, nullptr, 0 /* unlimited */);
  eng.begin_job("produce");
  IoStats io;
  {
    dfs::ScopedTransferLog task(1);
    auto w = fs.create("/mem/out", &io, dfs::StorageTier::kMemory);
    w.write_text("partition payload");
    w.close();
  }
  auto stats = eng.stats();
  EXPECT_EQ(stats.cache.insertions, 1u);
  EXPECT_EQ(stats.tracked_partitions, 1u);

  // A consumer open of the tracked partition counts a cache hit.
  eng.begin_job("consume");
  {
    dfs::ScopedTransferLog task(1);
    (void)fs.read_text("/mem/out");
  }
  EXPECT_GE(eng.stats().cache.hits, 1u);

  // Removing the file drops both the cache entry and the lineage record.
  fs.remove("/mem/out");
  stats = eng.stats();
  EXPECT_EQ(stats.cache.resident_bytes, 0u);
  EXPECT_EQ(stats.tracked_partitions, 0u);
}

TEST(SpinEngine, JobBoundaryEvictionSpillsToDiskAndChargesAdmitter) {
  dfs::Dfs fs(2);
  CostModel model;
  SpinEngine eng(&fs, nullptr, &model, nullptr, 64 /* bytes per node */);
  eng.begin_job("j1");
  {
    dfs::ScopedTransferLog task(0);
    auto w = fs.create("/mem/big", nullptr, dfs::StorageTier::kMemory);
    w.write_doubles(std::vector<double>(32, 1.0));  // 256 bytes > 64
    w.close();
  }
  // Eviction runs at the next job boundary, charged to the admitting job.
  const IoStats spill = eng.begin_job("j2");
  EXPECT_EQ(spill.bytes_spilled, 256u);
  EXPECT_EQ(fs.file_tier("/mem/big"), dfs::StorageTier::kDisk);
  const auto stats = eng.stats();
  EXPECT_EQ(stats.cache.evictions, 1u);
  EXPECT_EQ(stats.cache.spilled_bytes, 256u);
  ASSERT_EQ(stats.spills.size(), 1u);
  EXPECT_EQ(stats.spills[0].job_ordinal, 2u);
  EXPECT_EQ(stats.spills[0].path, "/mem/big");
  // The spilled file is still readable (now from disk) and stays lineage-
  // tracked with a disk restore tier.
  EXPECT_EQ(fs.read_doubles("/mem/big").size(), 32u);
  EXPECT_EQ(stats.tracked_partitions, 1u);
}

TEST(SpinEngine, NodeKillRebuildsLostPartitionsFromLineage) {
  dfs::Dfs fs(4);
  CostModel model;
  ChaosEngine chaos;
  fs.bind_chaos(&chaos, model.network_bandwidth);
  SpinEngine eng(&fs, &chaos, &model, nullptr, 0);

  const std::vector<double> payload(16, 3.25);
  eng.begin_job("produce");
  {
    dfs::ScopedTransferLog task(2);
    auto w = fs.create("/mem/lost", nullptr, dfs::StorageTier::kMemory);
    w.write_doubles(payload);
    w.close();
  }
  // A dependent partition on a surviving node: same kill, deeper wave only
  // if its own node dies — here it must NOT be recomputed.
  eng.begin_job("derive");
  {
    dfs::ScopedTransferLog task(1);
    (void)fs.read_doubles("/mem/lost");
    auto w = fs.create("/mem/kept", nullptr, dfs::StorageTier::kMemory);
    w.write_doubles(payload);
    w.close();
  }

  chaos.add_event({ChaosEventKind::kKillNode, 100.0, 2, 1.0});
  chaos.advance_to(200.0);

  const auto rec = chaos.stats();
  EXPECT_EQ(rec.nodes_killed, 1);
  EXPECT_EQ(rec.partitions_recomputed, 1);
  EXPECT_GE(rec.lineage_waves, 1);
  EXPECT_GT(rec.lineage_recompute_seconds, 0.0);
  EXPECT_EQ(rec.lineage_recomputed_bytes, 16u * sizeof(double));
  EXPECT_EQ(rec.blocks_lost, 1);  // the single memory replica died...

  // ...but the partition was rebuilt, not abandoned: readable, on the memory
  // tier, placed on a live node.
  EXPECT_EQ(fs.read_doubles("/mem/lost"), payload);
  EXPECT_EQ(fs.file_tier("/mem/lost"), dfs::StorageTier::kMemory);
  for (const auto& block : fs.file_blocks("/mem/lost")) {
    for (int replica : block.replicas) EXPECT_NE(replica, 2);
  }
  EXPECT_EQ(fs.read_doubles("/mem/kept"), payload);

  // Recovery occupies the cluster past the kill time; the engine surfaces
  // the stall point for the job runner.
  const auto stats = eng.stats();
  EXPECT_EQ(stats.partitions_recomputed, 1);
  ASSERT_EQ(stats.recomputes.size(), 1u);
  EXPECT_EQ(stats.recomputes[0].path, "/mem/lost");
  EXPECT_GE(stats.recomputes[0].at, 100.0);
  EXPECT_GT(eng.recovery_available_at(), 100.0);
}

// Lineage keeps the DFS's own block payloads: a live memory-tier partition
// is held once, and its rebuild after a node kill re-adopts the same bytes
// rather than copying them back in.
TEST(SpinEngine, HoldsOneCopyOfEachMemoryTierPayload) {
  dfs::DfsConfig cfg;
  cfg.block_size = 64;
  dfs::Dfs fs(4, cfg);
  CostModel model;
  ChaosEngine chaos;
  fs.bind_chaos(&chaos, model.network_bandwidth);
  SpinEngine eng(&fs, &chaos, &model, nullptr, 0);

  // One exact block (adopted writer buffer) and one two-block partition.
  const std::map<std::string, std::size_t> doubles = {{"/mem/one", 8},
                                                       {"/mem/two", 12}};
  eng.begin_job("produce");
  for (const auto& [path, count] : doubles) {
    dfs::ScopedTransferLog task(2);
    auto w = fs.create(path, nullptr, dfs::StorageTier::kMemory);
    w.write_doubles(std::vector<double>(count, 1.5));
    w.close();
  }
  std::map<std::string, std::vector<const void*>> committed;
  for (const auto& [path, count] : doubles) {
    const auto blocks = fs.file_blocks(path);
    ASSERT_EQ(blocks.size(), count == 8 ? 1u : 2u);
    for (const auto& block : blocks) {
      // The namenode, the lineage record and `blocks`: no second copy.
      EXPECT_EQ(block.data.use_count(), 3) << path;
      committed[path].push_back(block.data.get());
    }
  }

  chaos.add_event({ChaosEventKind::kKillNode, 100.0, 2, 1.0});
  chaos.advance_to(200.0);
  ASSERT_EQ(chaos.stats().partitions_recomputed, 2);
  for (const auto& [path, count] : doubles) {
    const auto blocks = fs.file_blocks(path);
    ASSERT_EQ(blocks.size(), committed[path].size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      EXPECT_EQ(blocks[b].data.get(), committed[path][b]) << path;
      EXPECT_EQ(blocks[b].data.use_count(), 3) << path;
    }
    EXPECT_EQ(fs.read_doubles(path), std::vector<double>(count, 1.5));
  }
}

// ---- satellite 1: one memory-tier conversion point -------------------------

IoStats mixed_io() {
  IoStats io;
  io.mults = 2'000'000'000;
  io.bytes_written = 30'000'000;
  io.bytes_read = 12'000'000;
  io.bytes_transferred = 12'000'000;
  io.bytes_written_memory = 50'000'000;
  io.bytes_read_memory = 40'000'000;
  io.bytes_spilled = 6'000'000;
  return io;
}

TEST(MemoryTierCharging, TaskSecondsDecomposesThroughTheOneHelper) {
  const CostModel model = CostModel::ec2_medium();
  const IoStats io = mixed_io();
  IoStats disk_only = io;
  disk_only.bytes_written_memory = 0;
  disk_only.bytes_read_memory = 0;
  disk_only.bytes_spilled = 0;
  // task_seconds must charge the memory tier exactly once, via
  // memory_tier_seconds — no second (drifting) conversion anywhere.
  EXPECT_DOUBLE_EQ(model.task_seconds(io),
                   model.task_seconds(disk_only) + model.memory_tier_seconds(io));
  EXPECT_DOUBLE_EQ(model.memory_tier_seconds(io),
                   (50'000'000.0 + 40'000'000.0) / model.memory_bandwidth +
                       6'000'000.0 / model.disk_bandwidth);
  EXPECT_EQ(model.memory_tier_seconds(disk_only), 0.0);
}

TEST(MemoryTierCharging, SchedulerAttemptTimingAgreesWithCostModel) {
  CostModel model;
  model.task_overhead_seconds = 0.25;
  model.node_speed_variance = 0.0;
  model.slots_per_node = 1;
  Cluster cluster(1, model);
  mr::Attempt a;
  a.io = mixed_io();
  const mr::PhaseSchedule s = mr::schedule_phase(cluster, {{a}});
  // The flat (non-racked) scheduler path must produce exactly the cost
  // model's task time for the same IoStats, memory tier included — the
  // regression satellite-1 exists to pin down.
  EXPECT_NEAR(s.duration, model.task_seconds(a.io), 1e-12);
  EXPECT_GT(model.memory_tier_seconds(a.io), 0.0);
}

}  // namespace
}  // namespace mri

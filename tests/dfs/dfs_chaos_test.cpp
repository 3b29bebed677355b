// DFS failure-model invariants: killing a datanode re-replicates its blocks
// back to the target replication from survivors, dead nodes never serve
// reads or receive writes, losing every replica fails fast with
// UnrecoverableBlock, and armed read errors fail over to live replicas.
#include "dfs/dfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/chaos.hpp"
#include "sim/metrics.hpp"

namespace mri::dfs {
namespace {

std::string payload(std::size_t bytes) {
  std::string s;
  s.reserve(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    s += static_cast<char>('a' + (i % 26));
  return s;
}

DfsConfig small_blocks(int replication) {
  DfsConfig cfg;
  cfg.block_size = 64;  // force several blocks per file
  cfg.replication = replication;
  return cfg;
}

TEST(DfsChaos, KillReReplicatesBackToTargetReplication) {
  Dfs fs(5, small_blocks(3));
  const std::string data = payload(1000);
  fs.write_text("/chaos/a", data);

  const NodeKillOutcome outcome = fs.kill_datanode(2);
  EXPECT_GT(outcome.re_replicated_blocks, 0)
      << "node 2 held no replicas of a 16-block file on 5 nodes?";
  EXPECT_GT(outcome.re_replicated_bytes, 0u);
  EXPECT_EQ(outcome.blocks_lost, 0);
  EXPECT_TRUE(fs.datanode_dead(2));
  EXPECT_EQ(fs.live_datanodes(), 4);

  for (const BlockLocation& block : fs.file_blocks("/chaos/a")) {
    EXPECT_EQ(block.replicas.size(), 3u)
        << "block " << block.id << " not restored to target replication";
    EXPECT_EQ(std::count(block.replicas.begin(), block.replicas.end(), 2), 0)
        << "block " << block.id << " still lists the dead node";
  }
  EXPECT_EQ(fs.read_text("/chaos/a"), data) << "reads touched the dead node";
}

TEST(DfsChaos, NewWritesAvoidDeadNodes) {
  Dfs fs(4, small_blocks(3));
  fs.kill_datanode(1);
  fs.write_text("/after", payload(500));
  for (const BlockLocation& block : fs.file_blocks("/after")) {
    EXPECT_EQ(std::count(block.replicas.begin(), block.replicas.end(), 1), 0);
    EXPECT_EQ(block.replicas.size(), 3u);  // 3 live nodes can still hold 3
  }
}

TEST(DfsChaos, LosingEveryReplicaFailsFastWithUnrecoverableBlock) {
  Dfs fs(3, small_blocks(1));
  fs.write_text("/lost", payload(200));
  const std::vector<BlockLocation> blocks = fs.file_blocks("/lost");
  ASSERT_FALSE(blocks.empty());
  const int holder = blocks.front().replicas.front();

  const NodeKillOutcome outcome = fs.kill_datanode(holder);
  EXPECT_GT(outcome.blocks_lost, 0);
  EXPECT_THROW(fs.read_text("/lost"), UnrecoverableBlock);
  // Fail fast on every retry, too — permanent loss never turns transient.
  EXPECT_THROW(fs.read_text("/lost"), UnrecoverableBlock);
}

TEST(DfsChaos, KillIsIdempotentPerNode) {
  Dfs fs(4, small_blocks(3));
  fs.write_text("/x", payload(300));
  fs.kill_datanode(3);
  const NodeKillOutcome second = fs.kill_datanode(3);
  EXPECT_EQ(second.re_replicated_blocks, 0);
  EXPECT_EQ(second.re_replicated_bytes, 0u);
  EXPECT_EQ(fs.live_datanodes(), 3);
}

TEST(DfsChaos, ReadErrorFailsOverToAnotherReplica) {
  MetricsRegistry metrics;
  Dfs fs(3, small_blocks(2), &metrics);
  const std::string data = payload(100);
  fs.write_text("/err", data);
  const int primary = fs.file_blocks("/err").front().replicas.front();

  fs.inject_read_error(primary);
  EXPECT_EQ(fs.read_text("/err"), data) << "failover to the second replica";
  EXPECT_GE(metrics.value("dfs_read_errors_survived"), 1u);
}

TEST(DfsChaos, ReadErrorWithoutAnotherReplicaIsTransient) {
  Dfs fs(2, small_blocks(1));
  const std::string data = payload(80);
  fs.write_text("/solo", data);
  const int holder = fs.file_blocks("/solo").front().replicas.front();

  fs.inject_read_error(holder);
  try {
    fs.read_text("/solo");
    FAIL() << "armed read error did not surface";
  } catch (const UnrecoverableBlock&) {
    FAIL() << "a transient read error must not be reported as permanent loss";
  } catch (const DfsError&) {
    // expected: transient, the retry below succeeds
  }
  EXPECT_EQ(fs.read_text("/solo"), data) << "error budget must be one-shot";
}

TEST(DfsChaos, BindChaosAppliesKillsAndAccountsReReplication) {
  ChaosEngine engine;
  engine.add_event({ChaosEventKind::kKillNode, 10.0, 1, 1.0});
  Dfs fs(4, small_blocks(3));
  fs.bind_chaos(&engine, /*network_bandwidth=*/1e6);
  fs.write_text("/bound", payload(600));

  engine.advance_to(5.0);
  EXPECT_FALSE(fs.datanode_dead(1));
  engine.advance_to(20.0);
  EXPECT_TRUE(fs.datanode_dead(1));

  const RecoveryStats stats = engine.stats();
  EXPECT_EQ(stats.nodes_killed, 1);
  EXPECT_GT(stats.re_replicated_bytes, 0u);
  EXPECT_GT(stats.re_replication_seconds, 0.0);
  EXPECT_EQ(stats.blocks_lost, 0);
}

TEST(DfsChaos, FlatKillOutcomePricesRepairAtTheBoundBandwidth) {
  // Without a racked topology the DFS prices repair traffic itself, as
  // bytes over the bandwidth bind_chaos was given.
  ChaosEngine engine;
  Dfs fs(4, small_blocks(3));
  fs.bind_chaos(&engine, /*network_bandwidth=*/1e6);
  fs.write_text("/priced", payload(600));
  const NodeKillOutcome outcome = fs.kill_datanode(1);
  ASSERT_GT(outcome.re_replicated_bytes, 0u);
  EXPECT_DOUBLE_EQ(outcome.re_replication_seconds,
                   static_cast<double>(outcome.re_replicated_bytes) / 1e6);
}

// Placement must be a function of the file alone, not of commit order:
// chaos re-replication totals depend on which blocks lived on the dead
// node, so same-seed runs are only bit-identical if two filesystems built
// by different thread interleavings agree on every replica list.
TEST(DfsChaos, ReplicaPlacementIsDeterministicPerPath) {
  Dfs a(5, small_blocks(3));
  Dfs b(5, small_blocks(3));
  a.write_text("/interleave/other", payload(100));  // only a sees this write
  a.write_text("/p/q", payload(500));
  b.write_text("/p/q", payload(500));

  const auto blocks_a = a.file_blocks("/p/q");
  const auto blocks_b = b.file_blocks("/p/q");
  ASSERT_EQ(blocks_a.size(), blocks_b.size());
  for (std::size_t i = 0; i < blocks_a.size(); ++i) {
    EXPECT_EQ(blocks_a[i].replicas, blocks_b[i].replicas)
        << "block " << i << " placed by commit order, not by path";
  }
}

}  // namespace
}  // namespace mri::dfs

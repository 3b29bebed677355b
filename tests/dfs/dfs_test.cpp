#include "dfs/dfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/thread_pool.hpp"

namespace mri::dfs {
namespace {

TEST(Dfs, TextRoundTrip) {
  Dfs fs(3);
  fs.write_text("/a/hello.txt", "hello world");
  EXPECT_EQ(fs.read_text("/a/hello.txt"), "hello world");
}

TEST(Dfs, DoubleRoundTrip) {
  Dfs fs(3);
  std::vector<double> values = {1.5, -2.25, 1e308, 0.0};
  fs.write_doubles("/v.bin", values);
  EXPECT_EQ(fs.read_doubles("/v.bin"), values);
}

TEST(Dfs, EmptyFile) {
  Dfs fs(2);
  fs.write_text("/empty", "");
  EXPECT_EQ(fs.file_size("/empty"), 0u);
  EXPECT_EQ(fs.read_text("/empty"), "");
}

TEST(Dfs, MultiBlockFile) {
  DfsConfig cfg;
  cfg.block_size = 16;  // force many blocks
  Dfs fs(3, cfg);
  std::string payload;
  for (int i = 0; i < 100; ++i) payload += "0123456789";
  fs.write_text("/big", payload);
  EXPECT_EQ(fs.read_text("/big"), payload);
}

TEST(Dfs, SeekAcrossBlocks) {
  DfsConfig cfg;
  cfg.block_size = 8;
  Dfs fs(2, cfg);
  std::vector<double> values(10);
  for (int i = 0; i < 10; ++i) values[static_cast<std::size_t>(i)] = i;
  fs.write_doubles("/v", values);
  auto r = fs.open("/v");
  r.seek(5 * sizeof(double));
  EXPECT_EQ(r.read_double(), 5.0);
  EXPECT_EQ(r.read_double(), 6.0);
}

TEST(Dfs, ReadAccounting) {
  MetricsRegistry metrics;
  Dfs fs(3, DfsConfig{}, &metrics);
  fs.write_text("/f", std::string(1000, 'x'));
  IoStats io;
  fs.read_text("/f", &io);
  EXPECT_EQ(io.bytes_read, 1000u);
  EXPECT_EQ(io.bytes_transferred, 1000u);  // HDFS read = remote read
  EXPECT_EQ(metrics.io_totals().bytes_read, 1000u);
}

TEST(Dfs, WriteAccountingWithReplication) {
  MetricsRegistry metrics;
  Dfs fs(5, DfsConfig{}, &metrics);  // replication 3
  IoStats io;
  fs.write_text("/f", std::string(600, 'y'), &io);
  EXPECT_EQ(io.bytes_written, 600u);
  EXPECT_EQ(io.bytes_replicated, 1200u);
  EXPECT_EQ(io.bytes_transferred, 1200u);
  // All replicas resident across datanodes.
  EXPECT_EQ(fs.physical_bytes_stored(), 1800u);
}

TEST(Dfs, ReplicationClampedToClusterSize) {
  Dfs fs(2);  // replication 3 requested, only 2 nodes
  IoStats io;
  fs.write_text("/f", std::string(100, 'z'), &io);
  EXPECT_EQ(io.bytes_replicated, 100u);
  EXPECT_EQ(fs.physical_bytes_stored(), 200u);
}

TEST(Dfs, RemoveEvictsBlocks) {
  Dfs fs(3);
  fs.write_text("/d/f", std::string(100, 'a'));
  EXPECT_GT(fs.physical_bytes_stored(), 0u);
  fs.remove("/d", /*recursive=*/true);
  EXPECT_EQ(fs.physical_bytes_stored(), 0u);
}

// physical_bytes_stored() counts a replicated block's length once per
// replica, pinned after each kind of block mutation: 4 nodes, replication
// 3, 64-byte blocks.
TEST(Dfs, PhysicalBytesFollowEveryReplicatedBlockMutation) {
  DfsConfig cfg;
  cfg.block_size = 64;
  Dfs fs(4, cfg);
  fs.write_text("/d/f", std::string(100, 'a'));  // blocks of 64 and 36 bytes
  EXPECT_EQ(fs.physical_bytes_stored(), 300u);
  {
    auto w = fs.create("/m/p", nullptr, StorageTier::kMemory);
    w.write_text(std::string(50, 'm'));  // one unreplicated copy
  }
  EXPECT_EQ(fs.physical_bytes_stored(), 350u);
  fs.spill_to_disk("/m/p");  // the copy stays on its node
  EXPECT_EQ(fs.physical_bytes_stored(), 350u);

  // Killing the spilled copy's node loses /m/p; every /d/f block it held is
  // re-replicated, back to 3 copies on the 3 nodes left.
  const int spill_node = fs.file_blocks("/m/p").front().replicas.front();
  std::uint64_t on_spill_node = 0;
  for (const BlockLocation& loc : fs.file_blocks("/d/f")) {
    if (std::count(loc.replicas.begin(), loc.replicas.end(), spill_node)) {
      on_spill_node += loc.length;
    }
  }
  const NodeKillOutcome kill = fs.kill_datanode(spill_node);
  EXPECT_GT(kill.re_replicated_blocks, 0);
  EXPECT_EQ(kill.re_replicated_bytes, on_spill_node);
  EXPECT_EQ(kill.blocks_lost, 1);
  EXPECT_EQ(fs.physical_bytes_stored(), 300u);

  const std::string spilled(50, 'm');
  fs.restore_file("/m/p", std::as_bytes(std::span(spilled)),
                  StorageTier::kMemory);
  EXPECT_EQ(fs.physical_bytes_stored(), 350u);

  // A second kill leaves each /d/f block 2 copies, with no third node to
  // re-replicate onto.
  const int holder = fs.file_blocks("/m/p").front().replicas.front();
  int victim = 0;
  while (fs.datanode_dead(victim) || victim == holder) ++victim;
  fs.kill_datanode(victim);
  EXPECT_EQ(fs.physical_bytes_stored(), 250u);

  fs.remove("/d", /*recursive=*/true);
  EXPECT_EQ(fs.physical_bytes_stored(), 50u);
  fs.remove("/m/p");
  EXPECT_EQ(fs.physical_bytes_stored(), 0u);
}

TEST(Dfs, WriterMoveAndExplicitClose) {
  Dfs fs(2);
  {
    auto w = fs.create("/m");
    w.write_text("abc");
    auto w2 = std::move(w);
    w2.write_text("def");
    w2.close();
  }
  EXPECT_EQ(fs.read_text("/m"), "abcdef");
}

TEST(Dfs, WriterCommitsOnDestruction) {
  Dfs fs(2);
  {
    auto w = fs.create("/auto");
    w.write_text("x");
  }
  EXPECT_TRUE(fs.is_file("/auto"));
}

// Files are write-once: a second create of a path fails on close and leaves
// the first file, and the bytes it stores, as they were.
TEST(Dfs, DuplicateCreateThrowsOnClose) {
  Dfs fs(4);  // replication 3
  fs.write_text("/dup", std::string(100, 'a'));
  EXPECT_EQ(fs.physical_bytes_stored(), 300u);
  auto w = fs.create("/dup");
  w.write_text(std::string(100, 'b'));
  EXPECT_THROW(w.close(), DfsError);
  EXPECT_EQ(fs.read_text("/dup"), std::string(100, 'a'));
  EXPECT_EQ(fs.physical_bytes_stored(), 300u);
  fs.remove("/dup");
  EXPECT_EQ(fs.physical_bytes_stored(), 0u);
}

TEST(Dfs, ShortReadThrows) {
  Dfs fs(2);
  fs.write_text("/small", "ab");
  auto r = fs.open("/small");
  std::array<std::byte, 10> buf{};
  EXPECT_THROW(r.read_exact(buf), DfsError);
}

TEST(Dfs, RegistryGetsEveryReadOnceItsReaderIsGone) {
  // Readers charge the task account on every read and the registry once,
  // when destroyed. After many small reads — through a moved reader, one
  // dropped mid-file and one dropped while an exception unwinds — the
  // registry's read totals equal the sum of the task accounts.
  MetricsRegistry metrics;
  DfsConfig cfg;
  cfg.block_size = 64;  // reads cross block boundaries
  Dfs fs(3, cfg, &metrics);
  std::vector<double> values(100);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = 0.5 * i;
  fs.write_doubles("/v", values);
  const IoStats before = metrics.io_totals();

  IoStats tasks;
  {
    auto r = fs.open("/v", &tasks);
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(r.read_double(), values[i]);
      EXPECT_EQ(tasks.bytes_read, (i + 1) * sizeof(double))
          << "the task account is charged on every read";
    }
  }
  {
    auto r = fs.open("/v", &tasks);
    r.read_double();
    Dfs::Reader moved(std::move(r));
    EXPECT_EQ(moved.read_double(), values[1]);
  }
  {
    auto r = fs.open("/v", &tasks);
    for (int i = 0; i < 7; ++i) r.read_double();
  }
  try {
    auto r = fs.open("/v", &tasks);
    r.read_double();
    std::array<std::byte, 8000> too_many{};
    r.read_exact(too_many);  // reads the other 99 doubles, then throws
    ADD_FAILURE() << "short read did not throw";
  } catch (const DfsError&) {
  }

  EXPECT_EQ(tasks.bytes_read, (100 + 2 + 7 + 100) * sizeof(double));
  IoStats registry = metrics.io_totals();
  registry -= before;
  EXPECT_EQ(registry, tasks);
}

TEST(Dfs, ReadAllDoublesRejectsMisaligned) {
  Dfs fs(2);
  fs.write_text("/odd", "12345");  // not a multiple of 8
  EXPECT_THROW(fs.read_doubles("/odd"), DfsError);
}

TEST(Dfs, ConcurrentWritersDistinctFiles) {
  // §5.2's design point: tasks write disjoint files with no synchronization.
  MetricsRegistry metrics;
  Dfs fs(8, DfsConfig{}, &metrics);
  ThreadPool pool(8);
  pool.parallel_for(64, [&](std::size_t i) {
    fs.write_text("/out/f." + std::to_string(i), std::string(i + 1, 'w'));
  });
  EXPECT_EQ(fs.list("/out").size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(fs.file_size("/out/f." + std::to_string(i)), i + 1);
  }
}

TEST(Dfs, ConcurrentReadersSameFile) {
  Dfs fs(4);
  const std::string payload(4096, 'r');
  fs.write_text("/shared", payload);
  ThreadPool pool(8);
  pool.parallel_for(32, [&](std::size_t) {
    EXPECT_EQ(fs.read_text("/shared"), payload);
  });
}

TEST(Dfs, MemoryTierSkipsDiskAndReplication) {
  MetricsRegistry metrics;
  Dfs fs(4, DfsConfig{}, &metrics);
  IoStats io;
  auto w = fs.create("/hot", &io, StorageTier::kMemory);
  w.write_text(std::string(900, 'm'));
  w.close();
  EXPECT_EQ(io.bytes_written, 0u);
  EXPECT_EQ(io.bytes_replicated, 0u);
  EXPECT_EQ(io.bytes_transferred, 0u);
  EXPECT_EQ(io.bytes_written_memory, 900u);
  // One unreplicated copy resident.
  EXPECT_EQ(fs.physical_bytes_stored(), 900u);
  // Reads are charged normally (remote fetch).
  IoStats read_io;
  EXPECT_EQ(fs.read_text("/hot", &read_io).size(), 900u);
  EXPECT_EQ(read_io.bytes_read, 900u);
}

// A one-block replicated file's payload is its writer's buffer, adopted at
// commit; a memory-tier listener must still be handed exactly the written
// bytes, and physical bytes must count as they did when commit copied.
class RecordingListener : public TierListener {
 public:
  void on_commit(const std::string& path, StorageTier /*tier*/,
                 std::uint64_t size, int /*node*/,
                 std::span<const std::byte> payload,
                 const IoStats* /*task_io*/) override {
    paths.push_back(path);
    sizes.push_back(size);
    payloads.emplace_back(payload.begin(), payload.end());
  }
  void on_open(const std::string&, StorageTier, std::uint64_t) override {}
  void on_remove(const std::string&) override {}

  std::vector<std::string> paths;
  std::vector<std::uint64_t> sizes;
  std::vector<std::vector<std::byte>> payloads;
};

TEST(Dfs, CommitAdoptsTheWritersBufferAndTheListenerSeesIt) {
  DfsConfig cfg;
  cfg.block_size = 64;
  Dfs fs(4, cfg);
  RecordingListener listener;
  fs.set_tier_listener(&listener);
  const auto pattern = [](std::size_t n, char seed) {
    std::string s(n, '\0');
    for (std::size_t i = 0; i < n; ++i) s[i] = static_cast<char>(seed + i % 61);
    return s;
  };
  const std::string one = pattern(64, 'a');     // exactly one block
  const std::string many = pattern(150, 'A');   // blocks of 64, 64, 22
  const std::string disk = pattern(50, '0');    // replicated, one block
  for (const auto& [path, text, tier] :
       {std::tuple{"/m/one", &one, StorageTier::kMemory},
        std::tuple{"/m/many", &many, StorageTier::kMemory},
        std::tuple{"/d/one", &disk, StorageTier::kDisk}}) {
    auto w = fs.create(path, nullptr, tier);
    w.reserve(text->size());
    w.write_text(text->substr(0, 10));
    w.write_text(text->substr(10));
    w.close();
  }
  fs.set_tier_listener(nullptr);

  ASSERT_EQ(listener.paths.size(), 2u);  // memory-tier commits only
  EXPECT_EQ(listener.paths[0], "/m/one");
  EXPECT_EQ(listener.paths[1], "/m/many");
  EXPECT_EQ(listener.sizes[0], one.size());
  EXPECT_EQ(listener.sizes[1], many.size());
  const auto bytes_of = [](const std::string& s) {
    const auto b = std::as_bytes(std::span(s));
    return std::vector<std::byte>(b.begin(), b.end());
  };
  EXPECT_EQ(listener.payloads[0], bytes_of(one));
  EXPECT_EQ(listener.payloads[1], bytes_of(many));
  // One copy per memory-tier block, three per replicated one.
  EXPECT_EQ(fs.physical_bytes_stored(), one.size() + many.size() +
                                            3 * disk.size());
  EXPECT_EQ(fs.file_blocks("/m/one").size(), 1u);
  EXPECT_EQ(fs.file_blocks("/m/many").size(), 3u);
  EXPECT_EQ(fs.read_text("/m/one"), one);
  EXPECT_EQ(fs.read_text("/m/many"), many);
  EXPECT_EQ(fs.read_text("/d/one"), disk);
}

TEST(Dfs, ReadSpansHandsOutStoredBytesChargedLikeARead) {
  DfsConfig cfg;
  cfg.block_size = 16;
  MetricsRegistry metrics;
  Dfs fs(3, cfg, &metrics);
  std::string text;
  for (int i = 0; i < 10; ++i) text += "0123456789";
  fs.write_text("/f", text);

  IoStats spans_io;
  std::vector<std::size_t> chunks;
  std::string seen;
  {
    auto r = fs.open("/f", &spans_io);
    r.seek(5);
    r.read_spans(40, [&](std::span<const std::byte> chunk) {
      chunks.push_back(chunk.size());
      seen.append(reinterpret_cast<const char*>(chunk.data()), chunk.size());
    });
    EXPECT_EQ(r.remaining(), 55u);
    EXPECT_THROW(r.read_spans(56, [](std::span<const std::byte>) {}),
                 DfsError);
  }
  // One span per stored block the bytes occupy: 11 + 16 + 13.
  EXPECT_EQ(chunks, (std::vector<std::size_t>{11, 16, 13}));
  EXPECT_EQ(seen, text.substr(5, 40));

  IoStats read_io;
  {
    auto r = fs.open("/f", &read_io);
    r.seek(5);
    std::string copy(40, '\0');
    r.read_exact(std::as_writable_bytes(std::span(copy)));
    EXPECT_EQ(copy, seen);
    std::string rest(55, '\0');
    r.read_exact(std::as_writable_bytes(std::span(rest)));
  }
  EXPECT_EQ(spans_io, read_io);  // the failed span read charged the tail too
}

// ---- rack-aware placement and transfer recording ----------------------------

std::shared_ptr<const net::Topology> racked_topology_of(int hosts, int racks,
                                                        bool rack_aware) {
  net::TopologyOptions o;
  o.kind = net::TopologyKind::kRacked;
  o.racks = racks;
  o.rack_aware_placement = rack_aware;
  return std::make_shared<const net::Topology>(hosts, 100e6, o);
}

TEST(DfsRacked, HdfsDefaultPlacementWriterRackLocalOffRack) {
  // 8 nodes over 4 racks (2 per rack). Writing from node 5 (rack 2) must
  // put the first replica on the writer, the second in the writer's rack
  // and the third outside it.
  Dfs fs(8);
  auto topo = racked_topology_of(8, 4, /*rack_aware=*/true);
  fs.set_topology(topo);
  ScopedTransferLog log(/*node=*/5);
  fs.write_text("/placed", std::string(1000, 'p'));
  const auto blocks = fs.file_blocks("/placed");
  ASSERT_EQ(blocks.size(), 1u);
  const auto& replicas = blocks[0].replicas;
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0], 5);
  EXPECT_EQ(topo->rack_of(replicas[1]), topo->rack_of(5));
  EXPECT_NE(replicas[1], 5);
  EXPECT_NE(topo->rack_of(replicas[2]), topo->rack_of(5));

  // The write pipeline was recorded: writer -> r1 -> r2 (no extra hop to
  // the first replica, it IS the writer's node).
  const auto& transfers = log.log().transfers;
  ASSERT_EQ(transfers.size(), 2u);
  EXPECT_EQ(transfers[0].src, 5);
  EXPECT_EQ(transfers[0].dst, replicas[1]);
  EXPECT_EQ(transfers[0].kind, net::TransferKind::kWrite);
  EXPECT_EQ(transfers[1].src, replicas[1]);
  EXPECT_EQ(transfers[1].dst, replicas[2]);
  EXPECT_EQ(transfers[0].bytes, 1000u);
}

TEST(DfsRacked, ClosestReplicaReadAndRecording) {
  Dfs fs(8);
  auto topo = racked_topology_of(8, 4, /*rack_aware=*/true);
  fs.set_topology(topo);
  {
    ScopedTransferLog write_log(/*node=*/5);
    fs.write_text("/near", std::string(500, 'n'));
  }
  // A reader on the writer's node sees a node-local copy (src == dst).
  {
    ScopedTransferLog read_log(/*node=*/5);
    EXPECT_EQ(fs.read_text("/near").size(), 500u);
    ASSERT_EQ(read_log.log().transfers.size(), 1u);
    EXPECT_EQ(read_log.log().transfers[0].src, 5);
    EXPECT_EQ(read_log.log().transfers[0].dst, 5);
    EXPECT_EQ(read_log.log().transfers[0].kind, net::TransferKind::kRead);
  }
  // A reader elsewhere in rack 2 picks the rack-local replica over the
  // off-rack one.
  const int other_in_rack = 4;  // rack_of(4) == rack_of(5) == 2
  {
    ScopedTransferLog read_log(other_in_rack);
    fs.read_text("/near");
    ASSERT_EQ(read_log.log().transfers.size(), 1u);
    const int src = read_log.log().transfers[0].src;
    EXPECT_EQ(topo->rack_of(src), topo->rack_of(other_in_rack));
  }
}

TEST(DfsRacked, FlatTopologyPlacementUnchanged) {
  // A flat Topology attached to the DFS must not change placement: layouts
  // are the same deterministic hash function of the path as with no
  // topology at all, and nothing is recorded.
  Dfs bare(6);
  bare.write_text("/same", std::string(100, 's'));
  Dfs flat(6);
  flat.set_topology(std::make_shared<const net::Topology>(6, 100e6));
  ScopedTransferLog log(/*node=*/2);
  flat.write_text("/same", std::string(100, 's'));
  EXPECT_EQ(bare.file_blocks("/same")[0].replicas,
            flat.file_blocks("/same")[0].replicas);
  EXPECT_TRUE(log.log().transfers.empty());
}

TEST(DfsRacked, KillSimulatesRepairFlowsAndPrefersSourceRack) {
  // Under a racked topology the repair traffic is flow-simulated:
  // re_replication_seconds must come back positive even with no network
  // bandwidth bound, and repaired blocks stay at full replication on live
  // nodes.
  Dfs fs(8);
  fs.set_topology(racked_topology_of(8, 4, /*rack_aware=*/true));
  {
    ScopedTransferLog log(/*node=*/5);
    fs.write_text("/repair", std::string(4000, 'r'));
  }
  const NodeKillOutcome outcome = fs.kill_datanode(5);
  EXPECT_EQ(outcome.re_replicated_blocks, 1);
  EXPECT_EQ(outcome.re_replicated_bytes, 4000u);
  EXPECT_GT(outcome.re_replication_seconds, 0.0);
  const auto replicas = fs.file_blocks("/repair")[0].replicas;
  ASSERT_EQ(replicas.size(), 3u);
  for (int r : replicas) EXPECT_NE(r, 5);
}

}  // namespace
}  // namespace mri::dfs

// Block-integrity invariants: CRC32C checksums on the write path, silent
// corruption served as-is with verification off, detect + read-repair with
// it on, EC degraded decodes around corrupt cells, lineage repair for
// memory-tier partitions, hot-cache staleness after corruption, and the
// background scrubber catching copies no read ever touches.
#include "dfs/dfs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "dfs/integrity/checksum_store.hpp"
#include "dfs/integrity/crc32c.hpp"
#include "sim/chaos.hpp"
#include "sim/cost_model.hpp"
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

DfsConfig verified(int replication = 3, std::uint64_t block_size = 64) {
  DfsConfig cfg;
  cfg.block_size = block_size;
  cfg.replication = replication;
  cfg.verify_checksums = true;
  return cfg;
}

TEST(Crc32c, KnownAnswer) {
  const char* digits = "123456789";
  EXPECT_EQ(crc32c(std::span<const std::byte>(
                reinterpret_cast<const std::byte*>(digits), 9)),
            0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

// Bit-at-a-time CRC32C with no table: the oracle both library paths (the
// dispatched one and the portable table loop) must agree with.
std::uint32_t crc32c_bitwise(std::span<const std::byte> data) {
  std::uint32_t c = ~0u;
  for (std::byte b : data) {
    c ^= static_cast<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

// Deterministic pseudo-random bytes (xorshift).
std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  std::uint64_t x = seed * 2654435761u + 1;
  for (std::byte& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::byte>(x >> 32);
  }
  return out;
}

TEST(Crc32c, Rfc3720Vectors) {
  // RFC 3720 §B.4: 32 bytes of zeros, of ones, ascending and descending.
  std::vector<std::byte> zeros(32, std::byte{0x00});
  std::vector<std::byte> ones(32, std::byte{0xFF});
  std::vector<std::byte> up(32);
  std::vector<std::byte> down(32);
  for (int i = 0; i < 32; ++i) {
    up[static_cast<std::size_t>(i)] = static_cast<std::byte>(i);
    down[static_cast<std::size_t>(i)] = static_cast<std::byte>(31 - i);
  }
  const std::vector<std::pair<std::vector<std::byte>, std::uint32_t>> cases = {
      {zeros, 0x8A9136AAu},
      {ones, 0x62A8AB43u},
      {up, 0x46DD794Eu},
      {down, 0x113FDB5Cu}};
  for (const auto& [bytes, want] : cases) {
    EXPECT_EQ(crc32c(bytes), want);
    EXPECT_EQ(detail::crc32c_portable(bytes), want);
    EXPECT_EQ(crc32c_bitwise(bytes), want);
  }
}

TEST(Crc32c, DispatchedAndPortableMatchBitwiseOracle) {
  // Every length through the single-stream and 8-byte/1-byte tails, and
  // +-1 around the three-stream chunk edges: 3 x 256 B, 3 x 8 KiB, and
  // 3 x 8 KiB followed by 3 x 256 B and a 7-byte tail.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1100; ++n) lengths.push_back(n);
  for (std::size_t edge : {std::size_t{768}, std::size_t{24576},
                           std::size_t{24576 + 768 + 7}}) {
    for (std::size_t n = edge - 1; n <= edge + 1; ++n) lengths.push_back(n);
  }
  const std::vector<std::byte> source = random_bytes(24576 + 768 + 16, 3);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len : lengths) {
      // Exact-size heap buffer: the data ends where the allocation ends, so
      // a read past the last byte is a heap overflow under ASan.
      const auto buffer = std::make_unique<std::byte[]>(offset + len);
      std::memcpy(buffer.get(), source.data(), offset + len);
      const std::span<const std::byte> data(buffer.get() + offset, len);
      const std::uint32_t want = crc32c_bitwise(data);
      ASSERT_EQ(crc32c(data), want) << "len " << len << " offset " << offset;
      ASSERT_EQ(detail::crc32c_portable(data), want)
          << "len " << len << " offset " << offset;
    }
  }
}

TEST(Crc32c, ChainingAtEverySplitEqualsOneShot) {
  const std::vector<std::byte> bytes = random_bytes(2048, 4);
  const std::span<const std::byte> all(bytes);
  const std::uint32_t whole = crc32c(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    ASSERT_EQ(crc32c(all.subspan(split), crc32c(all.first(split))), whole)
        << "split " << split;
    ASSERT_EQ(detail::crc32c_portable(all.subspan(split),
                                      detail::crc32c_portable(all.first(split))),
              whole)
        << "split " << split;
  }
}

TEST(CorruptCopy, DeterministicAndDifferent) {
  auto data = std::make_shared<const std::vector<std::byte>>(
      256, std::byte{0x5a});
  const BlockData a = corrupt_copy(data, 17);
  const BlockData b = corrupt_copy(data, 17);
  const BlockData c = corrupt_copy(data, 18);
  EXPECT_EQ(*a, *b) << "same salt must flip the same bits";
  EXPECT_NE(*a, *data) << "a corrupt copy must actually differ";
  EXPECT_NE(*c, *data);
  EXPECT_EQ(data->size(), a->size()) << "corruption never changes length";
  EXPECT_EQ(std::vector<std::byte>(256, std::byte{0x5a}), *data)
      << "the pristine payload must not be touched";
}

TEST(Integrity, WritePathRecordsChecksums) {
  Dfs fs(4, verified());
  fs.write_text("/crc/a", payload(200));  // 200 B / 64 B blocks = 4 blocks
  const IntegrityStats stats = fs.integrity_stats();
  EXPECT_EQ(stats.cells_checksummed, 4);
  EXPECT_EQ(stats.corruptions_injected, 0);
  EXPECT_EQ(stats.corruptions_detected, 0);
}

TEST(Integrity, VerifyOffServesRottenBytesSilently) {
  DfsConfig cfg = verified();
  cfg.verify_checksums = false;
  Dfs fs(4, cfg);
  const std::string data = payload(200);
  fs.write_text("/rot/a", data);
  const int primary = fs.file_blocks("/rot/a").front().replicas.front();

  fs.corrupt_block(primary, /*at=*/1.0);
  const std::string read = fs.read_text("/rot/a");
  EXPECT_NE(read, data) << "silent corruption must reach the reader";
  EXPECT_EQ(read.size(), data.size());

  const IntegrityStats stats = fs.integrity_stats();
  EXPECT_EQ(stats.corruptions_injected, 1);
  EXPECT_EQ(stats.corruptions_detected, 0) << "nothing verifies, so nothing "
                                              "can detect";
  // The read must be repeatable (same rotten view), not freshly random.
  EXPECT_EQ(fs.read_text("/rot/a"), read);
}

TEST(Integrity, VerifyOnDetectsAndReadRepairs) {
  MetricsRegistry metrics;
  Dfs fs(4, verified(), &metrics);
  const std::string data = payload(200);
  fs.write_text("/fix/a", data);
  const int primary = fs.file_blocks("/fix/a").front().replicas.front();

  fs.corrupt_block(primary, /*at=*/1.0);
  EXPECT_EQ(fs.integrity_stats().corruptions_injected, 1);

  EXPECT_EQ(fs.read_text("/fix/a"), data)
      << "verification must repair before serving";
  const IntegrityStats stats = fs.integrity_stats();
  EXPECT_EQ(stats.corruptions_detected, 1);
  EXPECT_EQ(stats.cells_repaired_copy, 1);
  EXPECT_EQ(stats.cells_quarantined, 1);
  ASSERT_EQ(stats.repairs.size(), 1u);
  EXPECT_EQ(stats.repairs.front().kind, std::string("copy"));
  EXPECT_FALSE(stats.repairs.front().by_scrubber);

  // The mark is cleared: later reads serve clean bytes with no new repair.
  EXPECT_EQ(fs.read_text("/fix/a"), data);
  EXPECT_EQ(fs.integrity_stats().cells_repaired_copy, 1);
}

TEST(Integrity, EcDegradedReadDecodesAroundExactlyKCleanCells) {
  DfsConfig cfg = verified(3, 1024);
  cfg.storage_policy = StoragePolicy::kErasureCoded;
  cfg.ec.k = 3;
  cfg.ec.m = 2;
  Dfs fs(6, cfg);
  const std::string data = payload(600);  // single RS(3,2) stripe
  fs.write_text("/ec/a", data);
  const BlockLocation loc = fs.file_blocks("/ec/a").front();
  ASSERT_EQ(loc.replicas.size(), 5u);

  // Corrupt two cells: exactly k = 3 clean cells survive, the decode
  // threshold. Verification excludes the marked cells and decodes.
  fs.corrupt_block(loc.replicas[0], /*at=*/1.0);
  fs.corrupt_block(loc.replicas[1], /*at=*/2.0);
  EXPECT_EQ(fs.integrity_stats().corruptions_injected, 2);

  EXPECT_EQ(fs.read_text("/ec/a"), data)
      << "degraded decode from exactly k clean survivors";
  const IntegrityStats stats = fs.integrity_stats();
  EXPECT_EQ(stats.corruptions_detected, 2);
  EXPECT_EQ(stats.cells_repaired_ec, 2);
  EXPECT_EQ(fs.read_text("/ec/a"), data) << "repaired stripe reads clean";
}

TEST(Integrity, EcRefusesToServeWithFewerThanKCleanCells) {
  DfsConfig cfg = verified(3, 1024);
  cfg.storage_policy = StoragePolicy::kErasureCoded;
  cfg.ec.k = 3;
  cfg.ec.m = 2;
  Dfs fs(6, cfg);
  fs.write_text("/ec/b", payload(600));
  const BlockLocation loc = fs.file_blocks("/ec/b").front();
  for (int i = 0; i < 3; ++i) {
    fs.corrupt_block(loc.replicas[static_cast<std::size_t>(i)],
                     /*at=*/1.0 + i);
  }
  // 2 clean cells < k = 3: verification refuses to decode known-bad bytes.
  EXPECT_THROW(fs.read_text("/ec/b"), UnrecoverableBlock);
}

TEST(Integrity, HotCacheNeverServesAStaleCopyAfterCorruption) {
  // Regression: the namenode hot cache retains full-block payloads; a
  // corruption on the backing datanode copy must poison the cached entry,
  // not let the cache keep serving bytes that no longer match the disk.
  MetricsRegistry metrics;
  DfsConfig cfg = verified();
  cfg.hot_cache_bytes = 1 << 20;
  Dfs fs(4, cfg, &metrics);
  const std::string data = payload(300);
  fs.write_text("/factors/ut_0.bin", data);
  EXPECT_EQ(fs.read_text("/factors/ut_0.bin"), data);
  EXPECT_GE(metrics.value("dfs_hot_cache_hits"), 1u);

  const int primary =
      fs.file_blocks("/factors/ut_0.bin").front().replicas.front();
  fs.corrupt_block(primary, /*at=*/1.0);

  // Verification on: the poisoned entry is bypassed, the datanode path
  // repairs, and the caller still sees pristine bytes.
  EXPECT_EQ(fs.read_text("/factors/ut_0.bin"), data);
  EXPECT_EQ(fs.integrity_stats().cells_repaired_copy, 1);
  // Repair clears the poison: the entry is served from cache again.
  const std::uint64_t hits = metrics.value("dfs_hot_cache_hits");
  EXPECT_EQ(fs.read_text("/factors/ut_0.bin"), data);
  EXPECT_GT(metrics.value("dfs_hot_cache_hits"), hits);
}

TEST(Integrity, HotCacheServesTheRotWhenVerificationIsOff) {
  // The other direction of the staleness regression: with verification off
  // the cache must mirror what a datanode read would return — the rotten
  // bytes — not its stale pristine copy.
  DfsConfig cfg = verified();
  cfg.verify_checksums = false;
  cfg.hot_cache_bytes = 1 << 20;
  Dfs fs(4, cfg);
  const std::string data = payload(300);
  fs.write_text("/factors/ut_1.bin", data);
  EXPECT_EQ(fs.read_text("/factors/ut_1.bin"), data);

  const int primary =
      fs.file_blocks("/factors/ut_1.bin").front().replicas.front();
  fs.corrupt_block(primary, /*at=*/1.0);
  EXPECT_NE(fs.read_text("/factors/ut_1.bin"), data)
      << "hot cache must not hide corruption the datanodes would serve";
}

TEST(Integrity, KillClearsRotThatDiedWithTheNode) {
  // With verification off, corruption poisons the hot entry so cached reads
  // serve the same rot the disk would. When the corrupted copy's node dies
  // and the block is re-materialized from a clean replica, the datanode
  // tier is pristine again — the cache must follow, not keep serving a
  // corruption that no longer exists anywhere on disk.
  DfsConfig cfg;  // verification off: rot is served, never detected
  cfg.block_size = 64;
  cfg.replication = 2;
  cfg.hot_cache_bytes = 1 << 20;
  Dfs fs(3, cfg);
  const std::string data = payload(100);
  fs.write_text("/factors/ut_2.bin", data);
  const int victim =
      fs.file_blocks("/factors/ut_2.bin").front().replicas.front();
  fs.corrupt_block(victim, 1.0);
  EXPECT_NE(fs.read_text("/factors/ut_2.bin"), data)
      << "corrupting the primary copy must poison the cached bytes too";
  fs.kill_datanode(victim);
  EXPECT_EQ(fs.read_text("/factors/ut_2.bin"), data)
      << "hot cache kept rot whose only corrupted copy died with the node";
  EXPECT_TRUE(fs.integrity_stats().repairs.empty())
      << "nothing was detected or repaired: the bad copy simply died";
}

TEST(Integrity, MemoryTierCorruptionRoutesThroughLineage) {
  struct Recorder final : TierListener {
    std::vector<std::string> corrupted;
    void on_commit(const std::string&, StorageTier, std::uint64_t, int,
                   const std::vector<BlockData>&, const IoStats*) override {}
    void on_open(const std::string&, StorageTier, std::uint64_t) override {}
    void on_remove(const std::string&) override {}
    double on_corrupt(const std::string& path, double) override {
      corrupted.push_back(path);
      return 2.5;  // simulated producer re-run
    }
  } recorder;

  Dfs fs(3, verified());
  fs.set_tier_listener(&recorder);
  const std::string data = payload(120);
  {
    Dfs::Writer w = fs.create("/mem/p", nullptr, StorageTier::kMemory);
    w.write_text(data);
    w.close();
  }
  const int node = fs.file_blocks("/mem/p").front().replicas.front();
  fs.corrupt_block(node, /*at=*/1.0);

  EXPECT_EQ(fs.read_text("/mem/p"), data);
  const IntegrityStats stats = fs.integrity_stats();
  EXPECT_EQ(stats.cells_repaired_lineage, 1);
  EXPECT_EQ(stats.cells_repaired_copy, 0);
  ASSERT_EQ(recorder.corrupted.size(), 1u);
  EXPECT_EQ(recorder.corrupted.front(), "/mem/p");
  fs.set_tier_listener(nullptr);
}

TEST(Integrity, ScrubberCatchesCorruptionNoReadTouches) {
  DfsConfig cfg = verified();
  cfg.scrub_interval_seconds = 10.0;
  Dfs fs(4, cfg);
  const CostModel model = CostModel::ec2_medium();
  ChaosEngine chaos;
  fs.bind_chaos(&chaos, model.network_bandwidth, &model);
  const std::string data = payload(200);
  fs.write_text("/cold/a", data);
  const int primary = fs.file_blocks("/cold/a").front().replicas.front();
  fs.corrupt_block(primary, /*at=*/2.0);

  chaos.advance_to(5.0);  // before the first interval boundary: no pass yet
  EXPECT_EQ(fs.integrity_stats().scrub_passes, 0);

  chaos.advance_to(25.0);  // passes at t=10 and t=20
  const IntegrityStats stats = fs.integrity_stats();
  EXPECT_EQ(stats.scrub_passes, 2);
  EXPECT_EQ(stats.corruptions_detected, 1);
  EXPECT_EQ(stats.cells_repaired_copy, 1);
  EXPECT_GT(stats.scrub_bytes_scanned, 0u);
  EXPECT_GT(stats.scrub_seconds, 0.0);
  ASSERT_EQ(stats.repairs.size(), 1u);
  EXPECT_TRUE(stats.repairs.front().by_scrubber);
  ASSERT_EQ(stats.scrubs.size(), 2u);
  EXPECT_EQ(stats.scrubs.front().cells_repaired, 1);
  EXPECT_EQ(stats.scrubs.back().cells_repaired, 0);

  EXPECT_EQ(fs.read_text("/cold/a"), data);
}

TEST(Integrity, SameSequenceIsBitIdenticalAcrossInstances) {
  const auto drive = [](Dfs& fs) {
    fs.write_text("/det/a", payload(300));
    fs.write_text("/det/b", payload(180));
    fs.corrupt_block(1, /*at=*/3.0);
    fs.corrupt_block(2, /*at=*/7.0, /*salt=*/0x51ull);
    std::string out = fs.read_text("/det/a") + fs.read_text("/det/b");
    fs.scrub_to(40.0);
    return out;
  };
  DfsConfig cfg = verified();
  cfg.scrub_interval_seconds = 15.0;
  Dfs a(5, cfg);
  Dfs b(5, cfg);
  EXPECT_EQ(drive(a), drive(b));

  const IntegrityStats sa = a.integrity_stats();
  const IntegrityStats sb = b.integrity_stats();
  EXPECT_EQ(sa.corruptions_injected, sb.corruptions_injected);
  EXPECT_EQ(sa.corruptions_detected, sb.corruptions_detected);
  EXPECT_EQ(sa.cells_repaired_copy, sb.cells_repaired_copy);
  EXPECT_EQ(sa.scrub_passes, sb.scrub_passes);
  EXPECT_EQ(sa.scrub_bytes_scanned, sb.scrub_bytes_scanned);
  EXPECT_EQ(sa.scrub_seconds, sb.scrub_seconds);
  ASSERT_EQ(sa.repairs.size(), sb.repairs.size());
  for (std::size_t i = 0; i < sa.repairs.size(); ++i) {
    EXPECT_EQ(sa.repairs[i].path, sb.repairs[i].path);
    EXPECT_EQ(sa.repairs[i].cell, sb.repairs[i].cell);
    EXPECT_EQ(sa.repairs[i].node, sb.repairs[i].node);
    EXPECT_EQ(sa.repairs[i].at, sb.repairs[i].at);
  }
}

// Pool threads read replicated and RS(3,2) files at once while corrupt
// copies sit on several nodes: every read returns the pristine bytes, and
// each corruption is detected and repaired exactly once however the readers
// race for it (clearing the mark is the claim). Whether a stripe read ran
// degraded depends on that race, so degraded_reads is not checked here.
TEST(Integrity, ConcurrentReadersRepairEachCorruptionOnce) {
  DfsConfig striped = verified(3, 256);
  striped.storage_policy = StoragePolicy::kErasureCoded;
  striped.ec.k = 3;
  striped.ec.m = 2;
  Dfs replicated_fs(6, verified(3, 256));
  Dfs striped_fs(6, striped);
  constexpr int kFiles = 8;
  std::vector<std::string> paths;
  std::vector<std::string> contents;
  for (int f = 0; f < kFiles; ++f) {
    std::string path = "/c/f";
    path += std::to_string(f);
    paths.push_back(path);
    contents.push_back(payload(700 + 37 * static_cast<std::size_t>(f)));
    replicated_fs.write_text(path, contents.back());
    striped_fs.write_text(path, contents.back());
  }
  // One primary copy per node of the replicated files; two cells of the
  // striped ones, so every stripe keeps k clean cells.
  for (int node = 0; node < 6; ++node) replicated_fs.corrupt_block(node, 1.0);
  striped_fs.corrupt_block(1, 1.0);
  striped_fs.corrupt_block(4, 1.0);
  ASSERT_EQ(replicated_fs.integrity_stats().corruptions_injected, 6);
  ASSERT_EQ(striped_fs.integrity_stats().corruptions_injected, 2);

  // Consecutive reads share a file, so the pool's threads start on the
  // same corrupt copies together.
  constexpr std::size_t kReadsPerFile = 6;
  std::atomic<int> wrong{0};
  ThreadPool pool(4);
  pool.parallel_for(2 * kFiles * kReadsPerFile, [&](std::size_t i) {
    const Dfs& fs = i % 2 == 0 ? replicated_fs : striped_fs;
    const std::size_t f = i / (2 * kReadsPerFile);
    if (fs.read_text(paths[f]) != contents[f]) ++wrong;
  });
  EXPECT_EQ(wrong.load(), 0);
  for (const Dfs* fs : {&replicated_fs, &striped_fs}) {
    const IntegrityStats stats = fs->integrity_stats();
    EXPECT_EQ(stats.corruptions_detected, stats.corruptions_injected);
    EXPECT_EQ(static_cast<std::int64_t>(stats.repairs.size()),
              stats.corruptions_injected);
  }
}

}  // namespace
}  // namespace mri::dfs

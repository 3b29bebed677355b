// Erasure-coded storage tier invariants: the GF(2^8) Reed–Solomon codec
// round-trips random payloads through any m losses, stripes spread their
// k+m cells over distinct nodes (flat and racked placement), degraded reads
// decode deterministically, losing more than m cells fails fast with
// UnrecoverableBlock, node kills repair by reconstruction (not
// re-replication), and the namenode hot-block cache serves resident files
// even after their cells die.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/inverter.hpp"
#include "dfs/dfs.hpp"
#include "dfs/ec/gf256.hpp"
#include "dfs/ec/rs_codec.hpp"
#include "dfs/integrity/checksum_store.hpp"
#include "mapreduce/trace_export.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "net/topology.hpp"
#include "sim/chaos.hpp"
#include "sim/io_stats.hpp"
#include "sim/metrics.hpp"

namespace mri::dfs {
namespace {

// Deterministic pseudo-random bytes (xorshift; no <random> to keep the
// payloads identical across platforms and libstdc++ versions).
std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  std::uint64_t x = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<std::uint8_t>(x >> 32);
  }
  return out;
}

std::string payload(std::size_t bytes) {
  std::string s;
  s.reserve(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    s += static_cast<char>('a' + (i % 26));
  return s;
}

DfsConfig ec_config(int k, int m, std::size_t block_size = 64) {
  DfsConfig cfg;
  cfg.block_size = block_size;  // force several stripes per file
  cfg.storage_policy = StoragePolicy::kErasureCoded;
  cfg.ec.k = k;
  cfg.ec.m = m;
  return cfg;
}

// -- field and codec ------------------------------------------------------

TEST(Gf256, FieldAxiomsOnAllElements) {
  // Every non-zero element has an inverse and mul distributes over XOR on a
  // sample; exhaustive inverse check is cheap (255 elements).
  for (int a = 1; a < 256; ++a) {
    const auto inv = ec::gf_inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(ec::gf_mul(static_cast<std::uint8_t>(a), inv), 1)
        << "inv failed for " << a;
  }
  for (int a = 0; a < 256; a += 7) {
    for (int b = 0; b < 256; b += 11) {
      for (int c = 0; c < 256; c += 13) {
        const auto av = static_cast<std::uint8_t>(a);
        const auto bv = static_cast<std::uint8_t>(b);
        const auto cv = static_cast<std::uint8_t>(c);
        EXPECT_EQ(ec::gf_mul(av, static_cast<std::uint8_t>(bv ^ cv)),
                  ec::gf_mul(av, bv) ^ ec::gf_mul(av, cv));
      }
    }
  }
  EXPECT_THROW(ec::gf_inv(0), InvalidArgument);
}

TEST(Gf256, MulAddMatchesPerByteOracleForEveryCoefficient) {
  // Lengths around the 32-byte vector width, at every src/dst misalignment
  // 0-3, for all 256 coefficients; both the dispatched and the portable
  // path must equal dst[i] ^ gf_mul(coeff, src[i]) byte for byte.
  const std::size_t lengths[] = {0, 1, 31, 32, 33, 63, 64, 65, 1000};
  const std::vector<std::uint8_t> src_bytes = random_bytes(1003, 5);
  const std::vector<std::uint8_t> dst_bytes = random_bytes(1003, 6);
  for (int c = 0; c < 256; ++c) {
    const auto coeff = static_cast<std::uint8_t>(c);
    for (std::size_t len : lengths) {
      for (std::size_t so = 0; so < 4; ++so) {
        for (std::size_t dof = 0; dof < 4; ++dof) {
          // Exact-size heap buffers: a read or write past `len` is a heap
          // overflow under ASan.
          const std::vector<std::uint8_t> src(
              src_bytes.begin(),
              src_bytes.begin() + static_cast<std::ptrdiff_t>(so + len));
          const std::vector<std::uint8_t> dst(
              dst_bytes.begin(),
              dst_bytes.begin() + static_cast<std::ptrdiff_t>(dof + len));
          std::vector<std::uint8_t> want = dst;
          for (std::size_t i = 0; i < len; ++i) {
            want[dof + i] ^= ec::gf_mul(coeff, src[so + i]);
          }
          std::vector<std::uint8_t> dispatched = dst;
          std::vector<std::uint8_t> portable = dst;
          ec::gf_mul_add(coeff, src.data() + so, dispatched.data() + dof, len);
          ec::detail::gf_mul_add_portable(coeff, src.data() + so,
                                          portable.data() + dof, len);
          ASSERT_EQ(dispatched, want) << "coeff " << c << " len " << len
                                      << " src+" << so << " dst+" << dof;
          ASSERT_EQ(portable, want) << "coeff " << c << " len " << len
                                    << " src+" << so << " dst+" << dof;
        }
      }
    }
  }
}

TEST(RsCodec, RoundTripsRandomPayloadsThroughEveryLossCount) {
  for (const auto& [k, m] : std::vector<std::pair<int, int>>{
           {3, 2}, {6, 3}, {10, 4}, {1, 1}}) {
    const std::size_t cell_len = 113;  // odd on purpose
    std::vector<std::vector<std::uint8_t>> data;
    std::vector<const std::uint8_t*> data_ptrs;
    for (int i = 0; i < k; ++i) {
      data.push_back(random_bytes(cell_len, static_cast<std::uint64_t>(
                                                k * 1000 + m * 100 + i)));
      data_ptrs.push_back(data.back().data());
    }
    const ec::RsCodec codec(k, m);
    const auto parity = codec.encode(data_ptrs, cell_len);
    ASSERT_EQ(parity.size(), static_cast<std::size_t>(m));

    // Knock out the first `lost` cells (data first, the harder direction)
    // and ask for all of them back.
    for (int lost = 1; lost <= m; ++lost) {
      std::vector<const std::uint8_t*> cells;
      std::vector<int> wanted;
      for (int i = 0; i < k; ++i) {
        cells.push_back(i < lost ? nullptr : data_ptrs[static_cast<std::size_t>(i)]);
        if (i < lost) wanted.push_back(i);
      }
      for (int j = 0; j < m; ++j) {
        cells.push_back(parity[static_cast<std::size_t>(j)].data());
      }
      const auto rebuilt = codec.reconstruct(cells, cell_len, wanted);
      ASSERT_EQ(rebuilt.size(), wanted.size());
      for (std::size_t w = 0; w < wanted.size(); ++w) {
        EXPECT_EQ(rebuilt[w], data[static_cast<std::size_t>(wanted[w])])
            << "RS(" << k << "," << m << ") lost=" << lost << " cell "
            << wanted[w];
      }
    }

    // Losing parity cells must also decode (rebuild a parity cell).
    if (m >= 2) {
      std::vector<const std::uint8_t*> cells;
      for (int i = 0; i < k; ++i)
        cells.push_back(data_ptrs[static_cast<std::size_t>(i)]);
      for (int j = 0; j < m; ++j)
        cells.push_back(j == 1 ? nullptr
                               : parity[static_cast<std::size_t>(j)].data());
      const auto rebuilt = codec.reconstruct(cells, cell_len, {k + 1});
      ASSERT_EQ(rebuilt.size(), 1u);
      EXPECT_EQ(rebuilt[0], parity[1]);
    }
  }
}

TEST(RsCodec, FewerThanKSurvivorsThrows) {
  const ec::RsCodec codec(4, 2);
  const std::vector<std::uint8_t> cell(16, 0x5a);
  std::vector<const std::uint8_t*> cells(6, nullptr);
  cells[0] = cell.data();
  cells[1] = cell.data();
  cells[2] = cell.data();  // only 3 of the needed 4
  EXPECT_THROW(codec.reconstruct(cells, cell.size(), {3}), Error);
}

TEST(RsCodec, EncodeIntoAndReconstructIntoMatchTheAllocatingForms) {
  const ec::RsCodec codec(6, 3);
  const std::size_t cell_len = 257;
  std::vector<std::vector<std::uint8_t>> data;
  std::vector<const std::uint8_t*> data_ptrs;
  for (int i = 0; i < 6; ++i) {
    data.push_back(random_bytes(cell_len, 77 + static_cast<std::uint64_t>(i)));
    data_ptrs.push_back(data.back().data());
  }
  const auto parity = codec.encode(data_ptrs, cell_len);
  std::vector<std::vector<std::uint8_t>> into(
      3, std::vector<std::uint8_t>(cell_len, 0));
  std::vector<std::uint8_t*> into_ptrs;
  for (auto& cell : into) into_ptrs.push_back(cell.data());
  codec.encode_into(data_ptrs, cell_len, into_ptrs);
  EXPECT_EQ(into, parity);
  // Byte by byte: parity cell j is the Cauchy row inv((k + j) ^ i) applied
  // to the data cells (rs_codec.hpp).
  for (std::size_t j = 0; j < 3; ++j) {
    std::vector<std::uint8_t> oracle(cell_len, 0);
    for (std::size_t i = 0; i < 6; ++i) {
      const auto coeff = ec::gf_inv(static_cast<std::uint8_t>((6 + j) ^ i));
      for (std::size_t b = 0; b < cell_len; ++b) {
        oracle[b] ^= ec::gf_mul(coeff, data[i][b]);
      }
    }
    EXPECT_EQ(into[j], oracle) << "parity cell " << j;
  }

  std::vector<const std::uint8_t*> cells = data_ptrs;
  for (const auto& p : parity) cells.push_back(p.data());
  cells[1] = nullptr;
  cells[4] = nullptr;
  cells[7] = nullptr;
  const std::vector<int> wanted = {1, 4, 7, 0};  // a present cell is copied
  const auto rebuilt = codec.reconstruct(cells, cell_len, wanted);
  std::vector<std::vector<std::uint8_t>> out(
      wanted.size(), std::vector<std::uint8_t>(cell_len, 0));
  std::vector<std::uint8_t*> out_ptrs;
  for (auto& cell : out) out_ptrs.push_back(cell.data());
  codec.reconstruct_into(cells, cell_len, wanted, out_ptrs);
  EXPECT_EQ(out, rebuilt);
  EXPECT_EQ(out[0], data[1]);
  EXPECT_EQ(out[1], data[4]);
  EXPECT_EQ(out[2], parity[1]);
  EXPECT_EQ(out[3], data[0]);
  EXPECT_THROW(codec.encode_into(data_ptrs, cell_len, {into_ptrs[0]}), Error);
}

// -- stripe placement -----------------------------------------------------

TEST(DfsEc, StripePlacementSpreadsCellsOverDistinctNodes) {
  Dfs fs(12, ec_config(6, 3, /*block_size=*/48));
  fs.write_text("/ec/a", payload(300));
  const auto blocks = fs.file_blocks("/ec/a");
  ASSERT_GT(blocks.size(), 1u) << "want several stripes";
  for (const BlockLocation& loc : blocks) {
    ASSERT_TRUE(loc.is_ec());
    EXPECT_EQ(loc.ec_k, 6);
    EXPECT_EQ(loc.ec_m, 3);
    ASSERT_EQ(loc.replicas.size(), 9u);
    const std::set<int> distinct(loc.replicas.begin(), loc.replicas.end());
    EXPECT_EQ(distinct.size(), loc.replicas.size())
        << "stripe cells share a node; one death would cost several cells";
  }
}

TEST(DfsEc, RackedPlacementKeepsCellsDistinctAndWriterLocal) {
  const int nodes = 12;
  Dfs fs(nodes, ec_config(6, 3, /*block_size=*/48));
  net::TopologyOptions opts;
  opts.kind = net::TopologyKind::kRacked;
  opts.racks = 4;
  opts.rack_aware_placement = true;
  fs.set_topology(std::make_shared<const net::Topology>(nodes, 1.0e9, opts));

  ScopedTransferLog log(/*node=*/5);
  fs.write_text("/ec/racked", payload(300));
  for (const BlockLocation& loc : fs.file_blocks("/ec/racked")) {
    ASSERT_EQ(loc.replicas.size(), 9u);
    const std::set<int> distinct(loc.replicas.begin(), loc.replicas.end());
    EXPECT_EQ(distinct.size(), loc.replicas.size());
    EXPECT_EQ(loc.replicas.front(), 5)
        << "first data cell must stay writer-local (HDFS-EC contract)";
  }
}

// -- accounting -----------------------------------------------------------

TEST(DfsEc, WriteAccountingChargesParityAndPipelinedCells) {
  MetricsRegistry metrics;
  // One stripe: 60 bytes over k=6 -> 10-byte cells, 3 parity cells.
  Dfs fs(9, ec_config(6, 3, /*block_size=*/64), &metrics);
  IoStats io;
  fs.write_text("/ec/acct", payload(60), &io);
  EXPECT_EQ(io.bytes_written, 60u);
  EXPECT_EQ(io.bytes_parity, 30u);       // m * cell
  EXPECT_EQ(io.bytes_replicated, 80u);   // (k+m-1) * cell leave the writer
  EXPECT_EQ(io.bytes_transferred, 80u);
  EXPECT_EQ(io.degraded_reads, 0u);
  // Physical = data + parity cells; logical = file bytes.
  EXPECT_EQ(fs.physical_bytes_stored(), 90u);
  EXPECT_EQ(fs.logical_bytes_stored(), 60u);
  EXPECT_EQ(metrics.value("dfs_ec_stripes_written"), 1u);
}

TEST(IoStatsEc, SubtractionUnderflowIsRejected) {
  IoStats a;
  a.bytes_parity = 10;
  IoStats b;
  b.bytes_parity = 20;
  EXPECT_THROW(a -= b, InvalidArgument);
  IoStats c;
  c.degraded_reads = 1;
  IoStats d;
  EXPECT_NO_THROW(d += c);
  EXPECT_THROW(d -= IoStats{.degraded_reads = 2}, InvalidArgument);
}

// Commit builds each data cell once, from the block, with exactly cell_len
// bytes of capacity, and encodes parity straight into the parity cells: the
// stored cells must equal the zero-fill-then-copy build and encode()'s
// parity, for full stripes, a short last stripe and blocks shorter than k.
TEST(DfsEc, CommitBuildsTheCellsOfTheZeroFillAndCopyBuild) {
  for (const std::size_t bytes : {std::size_t{200}, std::size_t{4},
                                  std::size_t{1}, std::size_t{64}}) {
    Dfs fs(9, ec_config(6, 3, /*block_size=*/64));
    const std::vector<std::uint8_t> data = random_bytes(bytes, bytes);
    const std::string path = "/ec/commit" + std::to_string(bytes);
    fs.write_text(path, std::string(data.begin(), data.end()));
    const ec::RsCodec codec(6, 3);
    std::size_t offset = 0;
    for (const BlockLocation& loc : fs.file_blocks(path)) {
      const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
      std::vector<std::vector<std::uint8_t>> want(
          6, std::vector<std::uint8_t>(cell_len, 0));
      std::vector<const std::uint8_t*> ptrs;
      for (std::size_t i = 0; i < 6; ++i) {
        const std::size_t begin = i * cell_len;
        if (begin < loc.length) {
          std::memcpy(want[i].data(), data.data() + offset + begin,
                      std::min<std::size_t>(cell_len, loc.length - begin));
        }
        ptrs.push_back(want[i].data());
      }
      for (auto& p : codec.encode(ptrs, cell_len)) want.push_back(std::move(p));
      ASSERT_EQ(loc.cells.size(), 9u);
      for (std::size_t c = 0; c < 9; ++c) {
        const auto* stored =
            reinterpret_cast<const std::uint8_t*>(loc.cells[c]->data());
        EXPECT_EQ(std::vector<std::uint8_t>(stored, stored + cell_len),
                  want[c])
            << bytes << " bytes, block at " << offset << ", cell " << c;
        EXPECT_EQ(loc.cells[c]->capacity(), cell_len)
            << "cell " << c << " keeps slack past its stripe cell";
      }
      offset += static_cast<std::size_t>(loc.length);
    }
    EXPECT_EQ(offset, bytes);
  }
}

// -- in-place stripe reads --------------------------------------------------

// A stripe read serves the block's data cells in place. The reference here
// is what a read returned when it reassembled every block into a fresh
// buffer: the first k usable cells in slot order (a marked cell flipped
// when verification is off, left out when it is on), the lost data cells
// decoded from them, and the k data cells concatenated and cut to the
// block's length. Reads through a Reader must give the same bytes, the
// same IoStats and the same racked transfer records.
struct Reassembled {
  std::vector<std::byte> bytes;
  IoStats io;  // what the open charges, before any byte is read
  std::vector<net::Transfer> transfers;
};

Reassembled reassemble(const std::vector<BlockLocation>& blocks,
                       const std::map<int, std::uint64_t>& flipped,
                       bool verify, int reader) {
  Reassembled r;
  for (const BlockLocation& loc : blocks) {
    const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
    const ec::RsCodec codec(loc.ec_k, loc.ec_m);
    std::vector<std::vector<std::uint8_t>> held(loc.replicas.size());
    std::vector<const std::uint8_t*> cells(loc.replicas.size(), nullptr);
    int fetched = 0;
    for (std::size_t slot = 0; slot < loc.replicas.size() && fetched < loc.ec_k;
         ++slot) {
      const int node = loc.replicas[slot];
      if (node < 0) continue;  // lost with its node
      const auto mark = flipped.find(node);
      if (mark != flipped.end() && verify) continue;
      BlockData cell = loc.cells[slot];
      if (mark != flipped.end()) cell = corrupt_copy(cell, mark->second);
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(cell->data());
      held[slot].assign(bytes, bytes + cell_len);
      cells[slot] = held[slot].data();
      ++fetched;
      r.transfers.push_back(
          net::Transfer{node, reader, cell_len, net::TransferKind::kRead});
    }
    std::vector<int> missing;
    for (int i = 0; i < loc.ec_k; ++i) {
      if (cells[static_cast<std::size_t>(i)] == nullptr) missing.push_back(i);
    }
    const auto decoded = codec.reconstruct(cells, cell_len, missing);
    for (std::size_t i = 0; i < missing.size(); ++i) {
      cells[static_cast<std::size_t>(missing[i])] = decoded[i].data();
    }
    std::vector<std::byte> block(static_cast<std::size_t>(loc.length));
    std::size_t pos = 0;
    for (int i = 0; i < loc.ec_k && pos < block.size(); ++i) {
      const std::size_t take = std::min(cell_len, block.size() - pos);
      std::memcpy(block.data() + pos, cells[static_cast<std::size_t>(i)],
                  take);
      pos += take;
    }
    r.bytes.insert(r.bytes.end(), block.begin(), block.end());
    if (!missing.empty()) {
      r.io.degraded_reads += 1;
      r.io.bytes_reconstructed += missing.size() * cell_len;
    }
    if (verify) {
      r.io.bytes_checksummed += static_cast<std::uint64_t>(fetched) * cell_len;
    }
  }
  return r;
}

void expect_same_transfers(const std::vector<net::Transfer>& got,
                           const std::vector<net::Transfer>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src) << "transfer " << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << "transfer " << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << "transfer " << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << "transfer " << i;
  }
}

constexpr int kReader = 4;  // the reading task's node

/// An RS(6,3) filesystem on 9 nodes in 3 racks, so a dead node's cells
/// have nowhere to be rebuilt and stay lost.
std::unique_ptr<Dfs> racked_ec_dfs(bool verify, std::size_t block_size) {
  DfsConfig cfg = ec_config(6, 3, block_size);
  cfg.verify_checksums = verify;
  auto fs = std::make_unique<Dfs>(9, cfg);
  net::TopologyOptions opts;
  opts.kind = net::TopologyKind::kRacked;
  opts.racks = 3;
  fs->set_topology(std::make_shared<const net::Topology>(9, 1.0e9, opts));
  return fs;
}

/// Opens `path` once on the reader's node and reads it in 7-byte steps,
/// which cross every piece boundary at a different offset, checking bytes,
/// IoStats and transfer records against the reassembled reference.
void expect_read_matches_reassembly(const Dfs& fs, const std::string& path,
                                    const std::map<int, std::uint64_t>& flipped,
                                    bool verify) {
  const Reassembled want =
      reassemble(fs.file_blocks(path), flipped, verify, kReader);
  ScopedTransferLog log(kReader);
  IoStats io;
  Dfs::Reader reader = fs.open(path, &io);
  EXPECT_EQ(io, want.io) << "charged at open";
  std::vector<std::byte> got(static_cast<std::size_t>(reader.size()));
  std::size_t pos = 0;
  while (std::size_t n = reader.read(std::span<std::byte>(got).subspan(
             pos, std::min<std::size_t>(7, got.size() - pos)))) {
    pos += n;
  }
  EXPECT_EQ(pos, want.bytes.size());
  EXPECT_TRUE(got == want.bytes) << path << ": bytes differ";
  IoStats want_io = want.io;
  want_io.bytes_read = want.bytes.size();
  want_io.bytes_transferred = want.bytes.size();
  EXPECT_EQ(io, want_io);
  expect_same_transfers(log.log().transfers, want.transfers);
}

TEST(DfsEcInPlace, HealthyStripeServesTheStoredCellsUncopied) {
  const auto fs = racked_ec_dfs(/*verify=*/false, /*block_size=*/4096);
  // 1000 bytes: 167-byte cells, the sixth holding 165 bytes and 2 of padding.
  fs->write_text("/ip/healthy",
                 std::string(reinterpret_cast<const char*>(
                                 random_bytes(1000, 1).data()),
                             1000));
  expect_read_matches_reassembly(*fs, "/ip/healthy", {}, false);
  // The spans a read hands out are the stored cells themselves.
  const BlockLocation loc = fs->file_blocks("/ip/healthy").front();
  std::vector<const std::byte*> starts;
  std::vector<std::size_t> sizes;
  fs->open("/ip/healthy").read_spans(1000, [&](std::span<const std::byte> s) {
    starts.push_back(s.data());
    sizes.push_back(s.size());
  });
  ASSERT_EQ(starts.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(starts[i], loc.cells[i]->data()) << "cell " << i << " copied";
    EXPECT_EQ(sizes[i], i < 5 ? 167u : 165u) << "cell " << i;
  }
}

TEST(DfsEcInPlace, LostCellsAreDecodedIntoPieces) {
  for (const std::vector<int>& lost :
       {std::vector<int>{2}, std::vector<int>{0, 3, 5}}) {
    const auto fs = racked_ec_dfs(false, 4096);
    const auto data = random_bytes(1000, 2);
    fs->write_text("/ip/lost", std::string(data.begin(), data.end()));
    const BlockLocation loc = fs->file_blocks("/ip/lost").front();
    for (int slot : lost) {
      fs->kill_datanode(loc.replicas[static_cast<std::size_t>(slot)]);
    }
    expect_read_matches_reassembly(*fs, "/ip/lost", {}, false);
    IoStats io;
    EXPECT_EQ(fs->read_text("/ip/lost", &io),
              std::string(data.begin(), data.end()));
    EXPECT_EQ(io.degraded_reads, 1u);
    EXPECT_EQ(io.bytes_reconstructed, lost.size() * 167u);
  }
}

TEST(DfsEcInPlace, CorruptCellIsServedFlippedOrDecodedAround) {
  for (const bool verify : {false, true}) {
    const auto fs = racked_ec_dfs(verify, 4096);
    const auto data = random_bytes(1000, 3);
    fs->write_text("/ip/rot", std::string(data.begin(), data.end()));
    const int holder = fs->file_blocks("/ip/rot").front().replicas[1];
    constexpr std::uint64_t kSalt = 0x5eedull;
    fs->corrupt_block(holder, /*at=*/1.0, kSalt);
    expect_read_matches_reassembly(*fs, "/ip/rot", {{holder, kSalt}}, verify);
    const std::string again = fs->read_text("/ip/rot");
    if (verify) {
      EXPECT_EQ(again, std::string(data.begin(), data.end()))
          << "decoded around, then repaired";
      EXPECT_EQ(fs->integrity_stats().cells_repaired_ec, 1);
    } else {
      EXPECT_NE(again, std::string(data.begin(), data.end()))
          << "the flipped bytes reach the reader";
    }
  }
}

TEST(DfsEcInPlace, BlockShorterThanKCellsSkipsEmptyCells) {
  const auto fs = racked_ec_dfs(false, 4096);
  fs->write_text("/ip/short", "abcd");  // 1-byte cells; cells 4 and 5 empty
  expect_read_matches_reassembly(*fs, "/ip/short", {}, false);
  std::vector<std::size_t> sizes;
  fs->open("/ip/short").read_spans(4, [&](std::span<const std::byte> s) {
    sizes.push_back(s.size());
  });
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 1, 1}));
}

TEST(DfsEcInPlace, MultiBlockFileWithALostCell) {
  const auto fs = racked_ec_dfs(false, /*block_size=*/64);
  const auto data = random_bytes(200, 4);  // stripes of 64, 64, 64 and 8
  fs->write_text("/ip/multi", std::string(data.begin(), data.end()));
  ASSERT_EQ(fs->file_blocks("/ip/multi").size(), 4u);
  expect_read_matches_reassembly(*fs, "/ip/multi", {}, false);
  fs->kill_datanode(fs->file_blocks("/ip/multi").front().replicas[0]);
  expect_read_matches_reassembly(*fs, "/ip/multi", {}, false);
}

TEST(DfsEcInPlace, SeekAcrossAPaddedLastPiece) {
  const auto fs = racked_ec_dfs(false, /*block_size=*/1000);
  // Two stripes: 1000 bytes (167-byte cells, the last holding 165) and 37.
  const auto data = random_bytes(1037, 5);
  const std::string text(data.begin(), data.end());
  fs->write_text("/ip/seek", text);
  for (const std::uint64_t offset :
       {0ull, 1ull, 166ull, 167ull, 834ull, 835ull, 999ull, 1000ull, 1001ull,
        1036ull, 1037ull}) {
    Dfs::Reader reader = fs->open("/ip/seek");
    reader.seek(offset);
    EXPECT_EQ(reader.remaining(), 1037 - offset);
    std::string rest(static_cast<std::size_t>(reader.remaining()), '\0');
    reader.read_exact(std::as_writable_bytes(std::span<char>(rest)));
    EXPECT_EQ(rest, text.substr(static_cast<std::size_t>(offset)))
        << "seek to " << offset;
    EXPECT_EQ(reader.read(std::span<std::byte>()), 0u);
  }
}

// -- degraded reads -------------------------------------------------------

TEST(DfsEc, DegradedReadDecodesDeterministically) {
  MetricsRegistry metrics;
  // nodes == k+m: after a kill there is no spare node to rebuild onto, so
  // the stripes stay degraded and every read pays the decode path.
  Dfs fs(6, ec_config(4, 2, /*block_size=*/64), &metrics);
  const std::string data = payload(500);
  fs.write_text("/ec/deg", data);
  const int victim = fs.file_blocks("/ec/deg").front().replicas[1];

  fs.kill_datanode(victim);
  IoStats io1, io2;
  const std::string r1 = fs.read_text("/ec/deg", &io1);
  const std::string r2 = fs.read_text("/ec/deg", &io2);
  EXPECT_EQ(r1, data) << "degraded read returned wrong bytes";
  EXPECT_EQ(r2, data);
  EXPECT_GT(io1.degraded_reads, 0u) << "slot 1 is a data cell; its loss "
                                       "must surface as a degraded read";
  EXPECT_GT(io1.bytes_reconstructed, 0u);
  EXPECT_EQ(io1.bytes_read, io2.bytes_read);
  EXPECT_EQ(io1.bytes_reconstructed, io2.bytes_reconstructed);
  EXPECT_EQ(io1.degraded_reads, io2.degraded_reads);
}

TEST(DfsEc, ReadSurvivesUpToMLossesThenFailsFast) {
  Dfs fs(6, ec_config(3, 2, /*block_size=*/64));
  const std::string data = payload(300);
  fs.write_text("/ec/loss", data);
  std::vector<int> holders = fs.file_blocks("/ec/loss").front().replicas;

  // m = 2 node deaths leave exactly k survivors per stripe: still readable.
  // Kill the namenode's repair targets too, so cells stay lost instead of
  // being rebuilt (5 of 6 nodes dead leaves nowhere to reconstruct to).
  std::set<int> killed;
  fs.kill_datanode(holders[0]);
  killed.insert(holders[0]);
  fs.kill_datanode(holders[1]);
  killed.insert(holders[1]);
  EXPECT_EQ(fs.read_text("/ec/loss"), data);

  // Kill every node but one surviving holder: fewer than k cells remain.
  for (int n = 0; n < fs.num_datanodes(); ++n) {
    if (n == holders[4]) continue;
    if (killed.insert(n).second) fs.kill_datanode(n);
  }
  EXPECT_THROW(fs.read_text("/ec/loss"), UnrecoverableBlock);
  EXPECT_THROW(fs.read_text("/ec/loss"), UnrecoverableBlock)
      << "permanent loss must not turn transient on retry";
}

TEST(DfsEc, ArmedReadErrorFailsOverToDecode) {
  MetricsRegistry metrics;
  Dfs fs(6, ec_config(3, 2, /*block_size=*/64), &metrics);
  const std::string data = payload(200);
  fs.write_text("/ec/err", data);
  const int primary = fs.file_blocks("/ec/err").front().replicas.front();

  fs.inject_read_error(primary);
  EXPECT_EQ(fs.read_text("/ec/err"), data)
      << "a failing cell read must fail over to the remaining cells";
  EXPECT_GE(metrics.value("dfs_read_errors_survived"), 1u);
}

// -- kill-path reconstruction --------------------------------------------

TEST(DfsEc, NodeKillReconstructsCellsInsteadOfReplicating) {
  MetricsRegistry metrics;
  Dfs fs(8, ec_config(4, 2, /*block_size=*/64), &metrics);
  CostModel model = CostModel::ec2_medium();
  ChaosEngine chaos;
  fs.bind_chaos(&chaos, model.network_bandwidth, &model);
  const std::string data = payload(500);
  fs.write_text("/ec/kill", data);
  const int victim = fs.file_blocks("/ec/kill").front().replicas[2];

  const NodeKillOutcome outcome = fs.kill_datanode(victim, /*at=*/12.5);
  EXPECT_GT(outcome.ec_cells_reconstructed, 0);
  EXPECT_GT(outcome.ec_reconstructed_bytes, 0u);
  EXPECT_EQ(outcome.re_replicated_blocks, 0)
      << "EC files repair by decode, not re-replication";
  EXPECT_EQ(outcome.blocks_lost, 0);
  EXPECT_GT(outcome.re_replication_seconds, 0.0)
      << "reconstruction must cost fan-in plus decode time";

  // Every stripe is whole again, on live distinct nodes.
  for (const BlockLocation& loc : fs.file_blocks("/ec/kill")) {
    ASSERT_EQ(loc.replicas.size(), 6u);
    for (int holder : loc.replicas) {
      EXPECT_GE(holder, 0);
      EXPECT_NE(holder, victim);
      EXPECT_FALSE(fs.datanode_dead(holder));
    }
    const std::set<int> distinct(loc.replicas.begin(), loc.replicas.end());
    EXPECT_EQ(distinct.size(), loc.replicas.size());
  }
  EXPECT_EQ(fs.read_text("/ec/kill"), data);

  const auto events = fs.storage_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].at, 12.5);
  EXPECT_EQ(events[0].node, victim);
  EXPECT_EQ(events[0].cells, outcome.ec_cells_reconstructed);
  EXPECT_GT(events[0].seconds, 0.0);
  EXPECT_GE(metrics.value("dfs_ec_cells_reconstructed"),
            static_cast<std::uint64_t>(outcome.ec_cells_reconstructed));
}

// physical_bytes_stored() counts an erasure-coded block's cell length once
// per surviving cell. RS(3,2) on 6 nodes with 60-byte blocks: a 100-byte
// file is stripes of 60 and 40 bytes, with 20- and 14-byte cells.
TEST(DfsEc, PhysicalBytesFollowReconstructionAndStripeLoss) {
  Dfs fs(6, ec_config(3, 2, /*block_size=*/60));
  const std::string data = payload(100);
  fs.write_text("/ec/f", data);
  EXPECT_EQ(fs.physical_bytes_stored(), 5u * 20 + 5u * 14);

  // Each stripe leaves one node free, so the first kill rebuilds every cell
  // it took there.
  int stripes_on_node0 = 0;
  for (const BlockLocation& loc : fs.file_blocks("/ec/f")) {
    stripes_on_node0 += static_cast<int>(
        std::count(loc.replicas.begin(), loc.replicas.end(), 0));
  }
  const NodeKillOutcome first = fs.kill_datanode(0);
  EXPECT_GT(first.ec_cells_reconstructed, 0);
  EXPECT_EQ(first.ec_cells_reconstructed, stripes_on_node0);
  EXPECT_EQ(fs.physical_bytes_stored(), 5u * 20 + 5u * 14);
  EXPECT_EQ(fs.read_text("/ec/f"), data);

  // Now every stripe spans all 5 live nodes: later kills leave holes.
  fs.kill_datanode(1);
  EXPECT_EQ(fs.physical_bytes_stored(), 4u * 20 + 4u * 14);
  fs.kill_datanode(2);
  EXPECT_EQ(fs.physical_bytes_stored(), 3u * 20 + 3u * 14);
  EXPECT_EQ(fs.read_text("/ec/f"), data) << "k cells still decode";

  // Below k cells both stripes are lost; their survivors stay stored.
  const NodeKillOutcome below_k = fs.kill_datanode(3);
  EXPECT_EQ(below_k.blocks_lost, 2);
  EXPECT_EQ(fs.physical_bytes_stored(), 2u * 20 + 2u * 14);
  EXPECT_THROW(fs.read_text("/ec/f"), UnrecoverableBlock);

  fs.remove("/ec/f");
  EXPECT_EQ(fs.physical_bytes_stored(), 0u);
}

TEST(DfsEc, ReplicatedFilesStillReReplicateUnderEcPolicy) {
  // Memory-tier files are never striped; their single replica dies with the
  // node and surfaces via lost_files exactly as before.
  Dfs fs(6, ec_config(3, 2, /*block_size=*/64));
  {
    IoStats io;
    auto w = fs.create("/mem/f", &io, StorageTier::kMemory);
    w.write_text(payload(100));
    w.close();
  }
  const int holder = fs.file_blocks("/mem/f").front().replicas.front();
  const NodeKillOutcome outcome = fs.kill_datanode(holder);
  EXPECT_GT(outcome.blocks_lost, 0);
  ASSERT_EQ(outcome.lost_files.size(), 1u);
  EXPECT_EQ(outcome.lost_files[0], "/mem/f");
}

// -- hot-block cache ------------------------------------------------------

TEST(DfsHotCache, ServesResidentFilesAndCountsHits) {
  MetricsRegistry metrics;
  DfsConfig cfg;
  cfg.block_size = 64;
  cfg.hot_cache_bytes = 1024;
  Dfs fs(4, cfg, &metrics);
  const std::string hot = payload(200);
  fs.write_text("/work/ut_0_0", hot);
  fs.write_text("/work/other", payload(200));

  const HotCacheStats before = fs.hot_cache_stats();
  EXPECT_EQ(before.capacity_bytes, 1024u);
  EXPECT_EQ(before.resident_files, 1) << "only the ut-prefixed file caches";
  EXPECT_EQ(before.resident_bytes, 200u);

  EXPECT_EQ(fs.read_text("/work/ut_0_0"), hot);
  EXPECT_EQ(fs.read_text("/work/other"), payload(200));
  const HotCacheStats after = fs.hot_cache_stats();
  EXPECT_EQ(after.hits, 1u) << "only the resident file may hit";
  EXPECT_EQ(after.hit_bytes, 200u);
  EXPECT_EQ(metrics.value("dfs_hot_cache_hits"), 1u);
}

TEST(DfsHotCache, ServesFileEvenAfterEveryReplicaDied) {
  DfsConfig cfg = ec_config(2, 1, /*block_size=*/64);
  cfg.hot_cache_bytes = 4096;
  Dfs fs(3, cfg);
  const std::string hot = payload(150);
  fs.write_text("/work/ut_hot", hot);
  for (int n = 0; n < 3; ++n) fs.kill_datanode(n);
  EXPECT_EQ(fs.read_text("/work/ut_hot"), hot)
      << "the namenode's cached copy must outlive the datanodes";
}

TEST(DfsHotCache, CapacityBoundIsRespectedDeterministically) {
  DfsConfig cfg;
  cfg.block_size = 64;
  cfg.hot_cache_bytes = 250;
  Dfs fs(3, cfg);
  // Sorted-path greedy: /w/ut_a (100) fits, /w/ut_b (200) would overflow,
  // /w/ut_c (100) fits — independent of commit order.
  fs.write_text("/w/ut_c", payload(100));
  fs.write_text("/w/ut_b", payload(200));
  fs.write_text("/w/ut_a", payload(100));
  const HotCacheStats stats = fs.hot_cache_stats();
  EXPECT_EQ(stats.resident_files, 2);
  EXPECT_EQ(stats.resident_bytes, 200u);
}

// -- CLI-facing parameter validation --------------------------------------

TEST(EcParams, ParserRejectsMalformedSpecs) {
  EXPECT_THROW(parse_ec_params("6"), InvalidArgument);
  EXPECT_THROW(parse_ec_params("6,"), InvalidArgument);
  EXPECT_THROW(parse_ec_params(",3"), InvalidArgument);
  EXPECT_THROW(parse_ec_params("a,b"), InvalidArgument);
  EXPECT_THROW(parse_ec_params("6,3x"), InvalidArgument);
  EXPECT_THROW(parse_ec_params("0,3"), InvalidArgument);
  EXPECT_THROW(parse_ec_params("6,0"), InvalidArgument);
  EXPECT_THROW(parse_ec_params("200,100"), InvalidArgument);
  const EcParams p = parse_ec_params("10,4");
  EXPECT_EQ(p.k, 10);
  EXPECT_EQ(p.m, 4);
}

TEST(DfsEc, ConstructorRejectsStripesWiderThanTheCluster) {
  EXPECT_THROW(Dfs(5, ec_config(6, 3)), Error);
}

// -- end-to-end determinism ----------------------------------------------

struct EcRun {
  bool completed = false;
  std::string error;
  double residual = 0.0;
  std::string report_json;
  RunReport report;
};

EcRun run_inversion_once(const std::vector<ChaosEvent>& events) {
  const CostModel model = CostModel::ec2_medium().scaled_down(40.0);
  MetricsRegistry metrics;
  Cluster cluster(6, model);
  DfsConfig cfg = ec_config(3, 2, /*block_size=*/64ull << 10);
  cfg.hot_cache_bytes = 8ull << 20;
  Dfs fs(6, cfg, &metrics);
  ThreadPool pool(4);
  ChaosEngine chaos;
  for (const ChaosEvent& e : events) chaos.add_event(e);
  fs.bind_chaos(&chaos, model.network_bandwidth, &model);

  core::MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics,
                                   &chaos);
  core::InversionOptions options;
  options.nb = 16;
  const Matrix a = random_matrix(64, 11);

  EcRun run;
  try {
    core::MapReduceInverter::Result result = inverter.invert(a, options);
    run.completed = true;
    run.residual = inversion_residual(a, result.inverse);
    run.report =
        mr::build_run_report(result.jobs, cluster, &metrics,
                             result.master_spans, &chaos, nullptr, &fs);
    run.report_json = run_report_json(run.report);
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  return run;
}

TEST(DfsEc, SameSeedChaosRunsAreBitIdentical) {
  const EcRun clean = run_inversion_once({});
  ASSERT_TRUE(clean.completed) << clean.error;
  ASSERT_LT(clean.residual, 1e-10);
  EXPECT_EQ(clean.report.storage.policy, "erasure_coded");
  EXPECT_EQ(clean.report.storage.ec_k, 3);
  EXPECT_EQ(clean.report.storage.ec_m, 2);
  EXPECT_GT(clean.report.storage.logical_bytes, 0u);
  EXPECT_GT(clean.report.storage.parity_bytes, 0u);
  // RS(3,2) physical overhead ~5/3, far below replication's 3x.
  EXPECT_LT(clean.report.storage.physical_overhead, 2.0);
  EXPECT_GT(clean.report.storage.physical_overhead, 1.0);

  const std::vector<ChaosEvent> events = {
      {ChaosEventKind::kKillNode, 0.5 * clean.report.sim_seconds, 5, 1.0}};
  const EcRun a = run_inversion_once(events);
  const EcRun b = run_inversion_once(events);
  ASSERT_TRUE(a.completed) << a.error;
  ASSERT_TRUE(b.completed) << b.error;
  EXPECT_LT(a.residual, 1e-10) << "EC recovery lost accuracy";
  EXPECT_EQ(a.report_json, b.report_json)
      << "same schedule, same seed, different EC report";
}

}  // namespace
}  // namespace mri::dfs

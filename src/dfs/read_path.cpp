// Dfs read path: the Reader, replica and stripe reads, and open().
#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "dfs/dfs.hpp"
#include "dfs/ec/rs_codec.hpp"

namespace mri::dfs {

Dfs::Reader::Reader(const Dfs* fs, std::vector<BlockData> blocks,
                    std::vector<int> sources, std::vector<bool> mem_local,
                    std::uint64_t size, IoStats* account)
    : blocks_(std::move(blocks)),
      sources_(std::move(sources)),
      mem_local_(std::move(mem_local)),
      size_(size),
      account_(account),
      fs_(fs),
      record_transfers_(fs->racked_topology()) {}

void Dfs::Reader::account(std::uint64_t bytes, std::uint64_t memory_bytes) {
  IoStats io;
  io.bytes_read = bytes;
  io.bytes_transferred = bytes;  // HDFS read = remote read in the paper model
  // Node-local memory-tier chunks are a cache hit: charged at memory
  // bandwidth, no disk or network component.
  io.bytes_read_memory = memory_bytes;
  fs_->charge(io, account_);
}

std::size_t Dfs::Reader::read(std::span<std::byte> dst) {
  TransferLog* log = record_transfers_ ? current_transfer_log() : nullptr;
  std::size_t copied = 0;
  std::uint64_t memory_bytes = 0;
  while (copied < dst.size() && position_ < size_) {
    const auto& block = *blocks_[block_index_];
    const std::size_t in_block = block.size() - block_offset_;
    const std::size_t want = std::min(dst.size() - copied, in_block);
    std::memcpy(dst.data() + copied, block.data() + block_offset_, want);
    if (!mem_local_.empty() && mem_local_[block_index_]) memory_bytes += want;
    if (log != nullptr && want > 0 && sources_[block_index_] >= 0) {
      // One transfer per (block, read) chunk: bytes flow from the replica
      // this block was opened from to the reading task's node. The flow
      // scheduler coalesces per endpoint pair; node-local chunks stay in
      // the log too (they are disk traffic, charged at disk bandwidth).
      log->transfers.push_back(net::Transfer{sources_[block_index_],
                                             log->node, want,
                                             net::TransferKind::kRead});
    }
    copied += want;
    block_offset_ += want;
    position_ += want;
    if (block_offset_ == block.size()) {
      ++block_index_;
      block_offset_ = 0;
    }
  }
  if (copied > 0) account(copied - memory_bytes, memory_bytes);
  return copied;
}

void Dfs::Reader::read_exact(std::span<std::byte> dst) {
  const std::size_t got = read(dst);
  if (got != dst.size()) {
    throw DfsError("short read: wanted " + std::to_string(dst.size()) +
                   " bytes, got " + std::to_string(got));
  }
}

double Dfs::Reader::read_double() {
  double v = 0.0;
  read_exact(std::as_writable_bytes(std::span<double>(&v, 1)));
  return v;
}

std::uint64_t Dfs::Reader::read_u64() {
  std::uint64_t v = 0;
  read_exact(std::as_writable_bytes(std::span<std::uint64_t>(&v, 1)));
  return v;
}

void Dfs::Reader::read_doubles(std::span<double> dst) {
  read_exact(std::as_writable_bytes(dst));
}

std::vector<double> Dfs::Reader::read_all_doubles() {
  const std::uint64_t bytes = remaining();
  if (bytes % sizeof(double) != 0) {
    throw DfsError("file tail is not a whole number of doubles");
  }
  std::vector<double> values(bytes / sizeof(double));
  read_doubles(values);
  return values;
}

std::string Dfs::Reader::read_all_text() {
  std::string text(remaining(), '\0');
  read_exact(std::as_writable_bytes(std::span<char>(text.data(), text.size())));
  return text;
}

void Dfs::Reader::seek(std::uint64_t offset) {
  MRI_REQUIRE(offset <= size_, "seek past end of file");
  position_ = 0;
  block_index_ = 0;
  block_offset_ = 0;
  std::uint64_t left = offset;
  while (left > 0) {
    const std::uint64_t block_len = blocks_[block_index_]->size();
    if (left >= block_len) {
      left -= block_len;
      ++block_index_;
    } else {
      block_offset_ = left;
      left = 0;
    }
  }
  position_ = offset;
}

BlockData Dfs::read_replica(const NameNode::FileInfo& file, std::size_t index,
                            int* source) const {
  const BlockLocation& loc = file.blocks[index];
  const std::string& path = file.path;
  if (source != nullptr) *source = -1;
  // Under a rack-aware topology HDFS reads the closest replica: node-local
  // first, then rack-local, then anything live. The flat model keeps the
  // placement order (bit-identical failover behaviour).
  std::vector<int> order(loc.replicas.begin(), loc.replicas.end());
  const int me = task_node();
  if (me >= 0 && racked_topology() &&
      topology_->options().rack_aware_placement) {
    const int my_rack = topology_->rack_of(me);
    const auto distance = [&](int n) {
      if (n == me) return 0;
      return topology_->rack_of(n) == my_rack ? 1 : 2;
    };
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return distance(a) < distance(b);
    });
  }
  int chosen = -1;
  int failed_over = 0;
  {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    for (int r : order) {
      const auto idx = static_cast<std::size_t>(r);
      if (dead_[idx]) continue;  // stale entry from an in-flight kill
      if (read_errors_[idx] > 0) {
        --read_errors_[idx];  // this copy errors out; try the next replica
        ++failed_over;
        continue;
      }
      chosen = r;
      break;
    }
  }
  if (chosen < 0) {
    if (failed_over > 0) {
      throw DfsError("read of block " + std::to_string(index) + " of " +
                     path + " failed on every live replica (injected read "
                     "errors); transient — retry the read");
    }
    // Every replica died with its datanode (namenode repair keeps the block
    // registered precisely so this read fails fast and loudly).
    throw UnrecoverableBlock(
        "block " + std::to_string(index) + " of " + path +
        ": all replicas lost to dead datanodes; the data is unrecoverable");
  }
  if (failed_over > 0 && metrics_ != nullptr) {
    metrics_->increment("dfs_read_errors_survived",
                        static_cast<std::uint64_t>(failed_over));
  }
  if (source != nullptr) *source = chosen;
  if (auto mark = checksums_.corrupt_mark(loc.id, chosen)) {
    if (!config_.verify_checksums) {
      // Silent corruption doing its job: the read *succeeds*, with wrong
      // bytes (a deterministic bit-flipped view of the payload).
      return corrupt_copy(
          datanodes_[static_cast<std::size_t>(chosen)]->get(loc.id),
          mark->salt);
    }
    // Verification catches the mismatch before any bytes reach the caller:
    // read-repair the copy in place from a healthy source, then serve the
    // pristine payload. Replica *selection* deliberately ignores corruption
    // marks — routing around a corrupt copy would make the served source
    // (and the transfer log) depend on how repairs race with concurrent
    // readers, breaking bit-identical same-seed reports.
    repair_corrupt_copy(loc, path, file.tier, chosen, -1, mark->at,
                        /*by_scrubber=*/false, nullptr);
  }
  if (config_.verify_checksums) verify_copy(loc, chosen, -1);
  return datanodes_[static_cast<std::size_t>(chosen)]->get(loc.id);
}

Dfs::StripeCells Dfs::decode_cells(const BlockLocation& loc,
                                   const std::vector<char>& usable,
                                   const std::vector<int>& wanted,
                                   bool serve_marks) const {
  const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
  StripeCells s;
  s.cells.assign(loc.replicas.size(), nullptr);
  for (std::size_t slot = 0; slot < loc.replicas.size() &&
                             static_cast<int>(s.fetched.size()) < loc.ec_k;
       ++slot) {
    if (!usable[slot]) continue;
    const int holder = loc.replicas[slot];
    BlockData cell = datanodes_[static_cast<std::size_t>(holder)]->get(loc.id);
    // With verification off a corrupt cell is still usable — the fetch
    // succeeds and silently delivers the bit-flipped view.
    if (serve_marks) {
      if (auto mark = checksums_.corrupt_mark(loc.id, holder)) {
        cell = corrupt_copy(cell, mark->salt);
      }
    }
    s.cells[slot] = reinterpret_cast<const std::uint8_t*>(cell->data());
    s.pins.push_back(std::move(cell));
    s.fetched.push_back(static_cast<int>(slot));
  }
  if (static_cast<int>(s.fetched.size()) < loc.ec_k) return s;
  std::vector<int> missing;
  for (int slot : wanted) {
    if (s.cells[static_cast<std::size_t>(slot)] == nullptr) {
      missing.push_back(slot);
    }
  }
  if (missing.empty()) return s;
  const ec::RsCodec codec(loc.ec_k, loc.ec_m);
  s.rebuilt = codec.reconstruct(s.cells, cell_len, missing);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    s.cells[static_cast<std::size_t>(missing[i])] = s.rebuilt[i].data();
  }
  return s;
}

BlockData Dfs::read_stripe(const NameNode::FileInfo& file, std::size_t index,
                           IoStats* account) const {
  const BlockLocation& loc = file.blocks[index];
  const auto block = [&] {
    return "EC block " + std::to_string(index) + " of " + file.path;
  };
  const int cells = loc.ec_k + loc.ec_m;
  MRI_CHECK_MSG(static_cast<int>(loc.replicas.size()) == cells,
                block() << " has " << loc.replicas.size()
                        << " cell slots, expected " << cells);
  const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
  // Cell availability under the chaos lock; an armed read error on a cell's
  // node knocks that cell out of this read (cell-level failover — the
  // stripe decodes around it from the other survivors).
  std::vector<char> available(static_cast<std::size_t>(cells), 0);
  // Cells that failed checksum verification this read (verification on
  // only): excluded from availability exactly like a dead holder, so the
  // stripe decodes around them from clean survivors — detection turns a
  // silent corruption into an ordinary degraded read. Repaired below, after
  // the read completes.
  std::vector<std::pair<int, CorruptMark>> corrupt_cells;
  int live = 0;
  int failed_over = 0;
  {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    for (int i = 0; i < cells; ++i) {
      const int holder = loc.replicas[static_cast<std::size_t>(i)];
      if (holder < 0 || dead_[static_cast<std::size_t>(holder)]) continue;
      if (read_errors_[static_cast<std::size_t>(holder)] > 0) {
        --read_errors_[static_cast<std::size_t>(holder)];
        ++failed_over;
        continue;
      }
      if (config_.verify_checksums) {
        if (auto mark = checksums_.corrupt_mark(loc.id, holder)) {
          corrupt_cells.emplace_back(i, *mark);
          continue;
        }
      }
      available[static_cast<std::size_t>(i)] = 1;
      ++live;
    }
  }
  if (live < loc.ec_k && !corrupt_cells.empty() && failed_over == 0) {
    // Fewer than k clean cells remain: there is no clean source to decode
    // from, and verification refuses to serve bytes it knows are bad.
    throw UnrecoverableBlock(
        block() + ": " + std::to_string(corrupt_cells.size()) +
        " stripe cells failed checksum verification and only " +
        std::to_string(live) + " clean cells remain but decoding needs " +
        std::to_string(loc.ec_k) + "; the data is unrecoverable");
  }
  if (live < loc.ec_k) {
    if (failed_over > 0) {
      throw DfsError("read of " + block() + " has only " +
                     std::to_string(live) + " of " + std::to_string(loc.ec_k) +
                     " required cells after injected read errors; transient "
                     "— retry the read");
    }
    throw UnrecoverableBlock(
        block() + ": only " + std::to_string(live) + " of " +
        std::to_string(cells) + " stripe cells survive but decoding needs " +
        std::to_string(loc.ec_k) + "; the data is unrecoverable");
  }
  if (failed_over > 0 && metrics_ != nullptr) {
    metrics_->increment("dfs_read_errors_survived",
                        static_cast<std::uint64_t>(failed_over));
  }
  // The first k available cells in slot order — data cells first, so a
  // healthy stripe is a plain concatenation with no decode.
  std::vector<int> data_cells(static_cast<std::size_t>(loc.ec_k));
  std::iota(data_cells.begin(), data_cells.end(), 0);
  const StripeCells s =
      decode_cells(loc, available, data_cells, /*serve_marks=*/true);
  // Reassemble the logical block payload from the k data cells.
  auto out = std::make_shared<std::vector<std::byte>>(
      static_cast<std::size_t>(loc.length));
  std::size_t pos = 0;
  for (int i = 0; i < loc.ec_k && pos < loc.length; ++i) {
    const std::size_t take =
        std::min(cell_len, static_cast<std::size_t>(loc.length) - pos);
    std::memcpy(out->data() + pos, s.cells[static_cast<std::size_t>(i)], take);
    pos += take;
  }
  // Under a racked topology the k cell fetches are recorded as read
  // transfers at open time (striped readers fetch whole cells); the Reader
  // then charges the scalar bytes without re-recording (source = -1).
  const int me = task_node();
  if (racked_topology() && me >= 0) {
    TransferLog* log = current_transfer_log();
    for (int i : s.fetched) {
      log->transfers.push_back(
          net::Transfer{loc.replicas[static_cast<std::size_t>(i)], me,
                        cell_len, net::TransferKind::kRead});
    }
  }
  if (!s.rebuilt.empty()) {
    // Degraded read: same bytes fetched as a healthy one (k cells either
    // way), but the lost data cells had to be decoded — charge the decode
    // output at ec_decode_bandwidth via bytes_reconstructed.
    IoStats io;
    io.degraded_reads = 1;
    io.bytes_reconstructed =
        static_cast<std::uint64_t>(s.rebuilt.size()) * cell_len;
    charge(io, account);
  }
  if (config_.verify_checksums) {
    // Checksum CPU for the k cells this read actually served.
    charge_verified(static_cast<std::int64_t>(s.fetched.size()),
                    static_cast<std::uint64_t>(s.fetched.size()) * cell_len,
                    account);
    // Read-repair the cells verification knocked out of this read: decode
    // already proved the stripe has k clean survivors, so re-materialize
    // each bad cell in place (EC stripes are disk-tier by construction).
    for (const auto& [slot, mark] : corrupt_cells) {
      repair_corrupt_copy(loc, file.path, StorageTier::kDisk,
                          loc.replicas[static_cast<std::size_t>(slot)], slot,
                          mark.at, /*by_scrubber=*/false, nullptr);
    }
  }
  return out;
}

Dfs::Reader Dfs::open(const std::string& path, IoStats* account) const {
  const NameNode::FileInfo file = namenode_.resolve(path);
  TransferLog* log = current_transfer_log();
  // Record the task's read-set for lineage (per-thread, so deterministic
  // under any task interleaving), then let the engine bump cache recency.
  const auto opened = [&](std::uint64_t size) {
    if (TierListener* listener =
            tier_listener_.load(std::memory_order_acquire)) {
      if (log != nullptr) log->read_paths.push_back(file.path);
      listener->on_open(file.path, file.tier, size);
    }
  };
  if (hot_ != nullptr) {
    if (auto hit = hot_->serve(file.path, config_.verify_checksums)) {
      // Served from the namenode's copy: charged like any remote read. A
      // hit under verification is clean and still pays the checksum CPU.
      opened(hit->size);
      if (config_.verify_checksums) {
        charge_verified(static_cast<std::int64_t>(hit->blocks.size()),
                        hit->size, account);
      }
      std::vector<int> no_sources(hit->blocks.size(), -1);
      return Reader(this, std::move(hit->blocks), std::move(no_sources), {},
                    hit->size, account);
    }
  }
  const int me = task_node();
  std::vector<BlockData> data;
  std::vector<int> sources;
  std::vector<bool> mem_local;
  data.reserve(file.blocks.size());
  sources.reserve(file.blocks.size());
  std::uint64_t size = 0;
  for (std::size_t index = 0; index < file.blocks.size(); ++index) {
    size += file.blocks[index].length;
    if (file.blocks[index].is_ec()) {
      data.push_back(read_stripe(file, index, account));
      sources.push_back(-1);  // transfers recorded per cell at open time
      continue;
    }
    int src = -1;
    data.push_back(read_replica(file, index, &src));
    sources.push_back(src);
    // A memory-tier block on the reader's own node streams at memory
    // bandwidth (the cache hit the SPIN engine exists to create); remote
    // memory blocks still pay the network fetch.
    if (file.tier == StorageTier::kMemory && src >= 0 && src == me) {
      if (mem_local.empty()) mem_local.assign(file.blocks.size(), false);
      mem_local[index] = true;
    }
  }
  opened(size);
  return Reader(this, std::move(data), std::move(sources),
                std::move(mem_local), size, account);
}

}  // namespace mri::dfs

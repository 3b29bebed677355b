// Dfs read path: the Reader, replica and stripe reads, and open().
#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "dfs/dfs.hpp"
#include "dfs/ec/rs_codec.hpp"

namespace mri::dfs {

Dfs::Reader::Reader(const Dfs* fs, std::vector<Piece> pieces,
                    std::uint64_t size, IoStats* account)
    : pieces_(std::move(pieces)),
      size_(size),
      account_(account),
      fs_(fs),
      record_transfers_(fs->racked_topology()) {}

Dfs::Reader::Reader(Reader&& other) noexcept
    : pieces_(std::move(other.pieces_)),
      size_(other.size_),
      position_(other.position_),
      piece_index_(other.piece_index_),
      piece_offset_(other.piece_offset_),
      account_(other.account_),
      unposted_(std::exchange(other.unposted_, IoStats{})),
      fs_(other.fs_),
      record_transfers_(other.record_transfers_) {}

Dfs::Reader::~Reader() {
  // One registry charge per reader instead of one locked add per read.
  // Every field is an integer count, so the totals are the same.
  if (unposted_.bytes_read != 0 || unposted_.bytes_read_memory != 0) {
    fs_->charge(unposted_, nullptr);
  }
}

void Dfs::Reader::account(std::uint64_t bytes, std::uint64_t memory_bytes) {
  IoStats io;
  io.bytes_read = bytes;
  io.bytes_transferred = bytes;  // HDFS read = remote read in the paper model
  // Node-local memory-tier chunks are a cache hit: charged at memory
  // bandwidth, no disk or network component.
  io.bytes_read_memory = memory_bytes;
  if (account_ != nullptr) *account_ += io;
  unposted_ += io;
}

template <typename Sink>
std::size_t Dfs::Reader::pull(std::size_t want, Sink&& sink) {
  TransferLog* log = record_transfers_ ? current_transfer_log() : nullptr;
  std::size_t pulled = 0;
  std::uint64_t memory_bytes = 0;
  while (pulled < want && position_ < size_) {
    const Piece& piece = pieces_[piece_index_];
    const std::size_t take =
        std::min(want - pulled, piece.bytes.size() - piece_offset_);
    sink(piece.bytes.subspan(piece_offset_, take));
    if (piece.memory_local) memory_bytes += take;
    if (log != nullptr && piece.source >= 0) {
      // One transfer per (block, read) chunk: bytes flow from the replica
      // this block was opened from to the reading task's node. The flow
      // scheduler coalesces per endpoint pair; node-local chunks stay in
      // the log too (they are disk traffic, charged at disk bandwidth).
      log->transfers.push_back(net::Transfer{piece.source, log->node, take,
                                             net::TransferKind::kRead});
    }
    pulled += take;
    piece_offset_ += take;
    position_ += take;
    if (piece_offset_ == piece.bytes.size()) {
      ++piece_index_;
      piece_offset_ = 0;
    }
  }
  if (pulled > 0) account(pulled - memory_bytes, memory_bytes);
  return pulled;
}

std::size_t Dfs::Reader::read(std::span<std::byte> dst) {
  std::byte* out = dst.data();
  return pull(dst.size(), [&out](std::span<const std::byte> chunk) {
    std::memcpy(out, chunk.data(), chunk.size());
    out += chunk.size();
  });
}

namespace {

void require_whole_read(std::size_t wanted, std::size_t got) {
  if (got != wanted) {
    throw DfsError("short read: wanted " + std::to_string(wanted) +
                   " bytes, got " + std::to_string(got));
  }
}

}  // namespace

void Dfs::Reader::read_exact(std::span<std::byte> dst) {
  require_whole_read(dst.size(), read(dst));
}

void Dfs::Reader::read_spans(
    std::size_t bytes,
    const std::function<void(std::span<const std::byte>)>& sink) {
  require_whole_read(bytes, pull(bytes, sink));
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
  piece_index_ = 0;
  std::uint64_t left = offset;
  while (piece_index_ < pieces_.size() &&
         left >= pieces_[piece_index_].bytes.size()) {
    left -= pieces_[piece_index_].bytes.size();
    ++piece_index_;
  }
  piece_offset_ = static_cast<std::size_t>(left);
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
      return corrupt_copy(loc.data, mark->salt);
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
  return loc.data;
}

Dfs::StripeCells Dfs::decode_cells(const BlockLocation& loc,
                                   const std::vector<char>& usable,
                                   const std::vector<int>& wanted,
                                   bool serve_marks) const {
  const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
  StripeCells s;
  s.cells.resize(loc.replicas.size());
  for (std::size_t slot = 0; slot < loc.replicas.size() &&
                             static_cast<int>(s.fetched.size()) < loc.ec_k;
       ++slot) {
    if (!usable[slot]) continue;
    BlockData cell = loc.cells[slot];
    // With verification off a corrupt cell is still usable — the fetch
    // succeeds and silently delivers the bit-flipped view.
    if (serve_marks) {
      if (auto mark = checksums_.corrupt_mark(loc.id, loc.replicas[slot])) {
        cell = corrupt_copy(cell, mark->salt);
      }
    }
    s.cells[slot] = std::move(cell);
    s.fetched.push_back(static_cast<int>(slot));
  }
  if (static_cast<int>(s.fetched.size()) < loc.ec_k) return s;
  std::vector<int> missing;
  std::vector<std::uint8_t*> out;
  for (int slot : wanted) {
    BlockData& cell = s.cells[static_cast<std::size_t>(slot)];
    if (cell != nullptr) continue;
    auto rebuilt = std::make_shared<std::vector<std::byte>>(cell_len);
    out.push_back(reinterpret_cast<std::uint8_t*>(rebuilt->data()));
    missing.push_back(slot);
    cell = std::move(rebuilt);
  }
  if (missing.empty()) return s;
  // The survivors: the fetched cells alone, not the slots just allocated.
  std::vector<const std::uint8_t*> survivors(loc.replicas.size(), nullptr);
  for (int slot : s.fetched) {
    survivors[static_cast<std::size_t>(slot)] =
        reinterpret_cast<const std::uint8_t*>(
            s.cells[static_cast<std::size_t>(slot)]->data());
  }
  const ec::RsCodec codec(loc.ec_k, loc.ec_m);
  codec.reconstruct_into(survivors, cell_len, missing, out);
  s.rebuilt = static_cast<int>(missing.size());
  return s;
}

void Dfs::read_stripe(const NameNode::FileInfo& file, std::size_t index,
                      IoStats* account,
                      std::vector<Reader::Piece>* pieces) const {
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
  // healthy stripe is its data cells as stored, with no decode.
  std::vector<int> data_cells(static_cast<std::size_t>(loc.ec_k));
  std::iota(data_cells.begin(), data_cells.end(), 0);
  StripeCells s =
      decode_cells(loc, available, data_cells, /*serve_marks=*/true);
  // The block is its k data cells in order; the last holding bytes stops
  // at the block's end (the rest is stripe padding), and a cell past it
  // holds none and is skipped.
  const auto length = static_cast<std::size_t>(loc.length);
  for (std::size_t i = 0; i < data_cells.size() && i * cell_len < length;
       ++i) {
    BlockData& cell = s.cells[i];
    const auto bytes = std::span<const std::byte>(*cell).first(
        std::min(cell_len, length - i * cell_len));
    pieces->push_back(Reader::Piece{std::move(cell), bytes});
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
  if (s.rebuilt > 0) {
    // Degraded read: same bytes fetched as a healthy one (k cells either
    // way), but the lost data cells had to be decoded — charge the decode
    // output at ec_decode_bandwidth via bytes_reconstructed.
    IoStats io;
    io.degraded_reads = 1;
    io.bytes_reconstructed = static_cast<std::uint64_t>(s.rebuilt) * cell_len;
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
      std::vector<Reader::Piece> pieces;
      pieces.reserve(hit->blocks.size());
      for (BlockData& block : hit->blocks) {
        const std::span<const std::byte> bytes(*block);
        pieces.push_back(Reader::Piece{std::move(block), bytes});
      }
      return Reader(this, std::move(pieces), hit->size, account);
    }
  }
  const int me = task_node();
  // A file's blocks share one storage policy: one piece per replicated
  // block, up to k per stripe.
  const bool striped = !file.blocks.empty() && file.blocks.front().is_ec();
  std::vector<Reader::Piece> pieces;
  pieces.reserve(file.blocks.size() *
                 (striped ? static_cast<std::size_t>(file.blocks.front().ec_k)
                          : 1));
  std::uint64_t size = 0;
  for (std::size_t index = 0; index < file.blocks.size(); ++index) {
    size += file.blocks[index].length;
    if (file.blocks[index].is_ec()) {
      read_stripe(file, index, account, &pieces);
      continue;
    }
    int src = -1;
    BlockData block = read_replica(file, index, &src);
    const std::span<const std::byte> bytes(*block);
    // A memory-tier block on the reader's own node streams at memory
    // bandwidth (the cache hit the SPIN engine exists to create); remote
    // memory blocks still pay the network fetch.
    const bool memory_local =
        file.tier == StorageTier::kMemory && src >= 0 && src == me;
    pieces.push_back(Reader::Piece{std::move(block), bytes, src, memory_local});
  }
  opened(size);
  return Reader(this, std::move(pieces), size, account);
}

}  // namespace mri::dfs

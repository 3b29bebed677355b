#include "dfs/dfs.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string_view>

#include "common/error.hpp"
#include "dfs/ec/rs_codec.hpp"
#include "dfs/integrity/crc32c.hpp"
#include "dfs/path.hpp"
#include "net/flow_sim.hpp"

namespace mri::dfs {

namespace {
thread_local TransferLog* t_transfer_log = nullptr;

// Basename prefix of hot-block cache candidates: the transposed-U factors
// (ut.bin) every later LU and inversion job re-reads.
constexpr std::string_view kHotFilePrefix = "ut";
}  // namespace

TransferLog* current_transfer_log() { return t_transfer_log; }

ScopedTransferLog::ScopedTransferLog(int node) : previous_(t_transfer_log) {
  log_.node = node;
  t_transfer_log = &log_;
}

ScopedTransferLog::~ScopedTransferLog() { t_transfer_log = previous_; }

Dfs::Dfs(int num_datanodes, DfsConfig config, MetricsRegistry* metrics)
    : config_(config), metrics_(metrics) {
  MRI_REQUIRE(num_datanodes >= 1, "DFS needs at least one datanode");
  MRI_REQUIRE(config.replication >= 1, "replication must be >= 1");
  MRI_REQUIRE(config.block_size >= 1, "block size must be >= 1");
  MRI_REQUIRE(config.scrub_interval_seconds >= 0.0,
              "scrub interval must be >= 0");
  MRI_REQUIRE(config.scrub_interval_seconds == 0.0 || config.verify_checksums,
              "the background scrubber verifies checksums, so "
              "scrub_interval_seconds needs verify_checksums on");
  if (config.storage_policy == StoragePolicy::kErasureCoded) {
    MRI_REQUIRE(config.ec.k >= 1 && config.ec.m >= 1,
                "erasure coding needs k >= 1 and m >= 1, got RS("
                    << config.ec.k << "," << config.ec.m << ")");
    MRI_REQUIRE(config.ec.cells() <= num_datanodes,
                "erasure coding RS(" << config.ec.k << "," << config.ec.m
                                     << ") needs k + m = " << config.ec.cells()
                                     << " datanodes to spread a stripe, but "
                                        "the cluster has only "
                                     << num_datanodes);
  }
  datanodes_.reserve(static_cast<std::size_t>(num_datanodes));
  for (int i = 0; i < num_datanodes; ++i) {
    datanodes_.push_back(std::make_unique<DataNode>(i));
  }
  dead_.assign(static_cast<std::size_t>(num_datanodes), false);
  read_errors_.assign(static_cast<std::size_t>(num_datanodes), 0);
}

void Dfs::set_topology(std::shared_ptr<const net::Topology> topology) {
  MRI_REQUIRE(topology == nullptr || !topology->racked() ||
                  topology->num_hosts() == num_datanodes(),
              "topology has " << topology->num_hosts() << " hosts but the DFS "
                              << "has " << num_datanodes() << " datanodes");
  topology_ = std::move(topology);
}

bool Dfs::racked_topology() const {
  return topology_ != nullptr && topology_->racked() &&
         topology_->num_hosts() == num_datanodes();
}

void Dfs::remove(const std::string& path, bool recursive) {
  TierListener* listener = tier_listener_.load(std::memory_order_acquire);
  const bool want_paths =
      listener != nullptr || config_.hot_cache_bytes > 0;
  std::vector<std::string> removed_paths;
  for (const auto& block : namenode_.remove(
           path, recursive, want_paths ? &removed_paths : nullptr)) {
    checksums_.forget(block.id);
    for (int node : block.replicas) {
      if (node < 0) continue;  // lost EC cell sentinel
      datanodes_[static_cast<std::size_t>(node)]->evict(block.id);
    }
  }
  if (config_.hot_cache_bytes > 0) {
    std::lock_guard<std::mutex> lock(hot_mu_);
    bool changed = false;
    for (const std::string& p : removed_paths) {
      changed = hot_candidates_.erase(p) > 0 || changed;
    }
    if (changed) recompute_hot_residents_locked();
  }
  if (listener != nullptr) {
    for (const std::string& p : removed_paths) listener->on_remove(p);
  }
}

// ---------------------------------------------------------------------------
// Writer

Dfs::Writer::Writer(Dfs* fs, std::string path, bool overwrite, IoStats* account,
                    StorageTier tier)
    : fs_(fs), path_(std::move(path)), overwrite_(overwrite),
      account_(account), tier_(tier) {}

Dfs::Writer::Writer(Writer&& other) noexcept
    : fs_(other.fs_),
      path_(std::move(other.path_)),
      overwrite_(other.overwrite_),
      account_(other.account_),
      tier_(other.tier_),
      buffer_(std::move(other.buffer_)),
      closed_(other.closed_) {
  other.closed_ = true;  // moved-from writer must not commit
}

Dfs::Writer::~Writer() {
  if (!closed_) {
    try {
      close();
    } catch (...) {
      // Swallow: destructor must not throw. Callers that care about commit
      // failures should call close() explicitly.
    }
  }
}

void Dfs::Writer::write(std::span<const std::byte> data) {
  MRI_CHECK_MSG(!closed_, "write() after close() on " << path_);
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void Dfs::Writer::write_doubles(std::span<const double> values) {
  write(std::as_bytes(values));
}

void Dfs::Writer::write_u64(std::uint64_t value) {
  write(std::as_bytes(std::span<const std::uint64_t>(&value, 1)));
}

void Dfs::Writer::write_text(std::string_view text) {
  write(std::as_bytes(std::span<const char>(text.data(), text.size())));
}

void Dfs::Writer::close() {
  if (closed_) return;
  closed_ = true;
  fs_->commit(path_, std::move(buffer_), overwrite_, account_, tier_);
}

Dfs::Writer Dfs::create(const std::string& path, IoStats* account,
                        bool overwrite, StorageTier tier) {
  return Writer(this, normalize(path), overwrite, account, tier);
}

void Dfs::commit(const std::string& path, std::vector<std::byte> buffer,
                 bool overwrite, IoStats* account, StorageTier tier,
                 bool charge, bool notify) {
  const std::uint64_t total = buffer.size();
  // Replicas go to live nodes only; with no dead nodes this degenerates to
  // round-robin over all datanodes, bit-identical to the chaos-free layout.
  std::vector<int> live;
  {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    for (std::size_t i = 0; i < dead_.size(); ++i) {
      if (!dead_[i]) live.push_back(static_cast<int>(i));
    }
  }
  MRI_CHECK_MSG(!live.empty(),
                "every datanode is dead; cannot write " << path);
  // Memory-tier files keep a single unreplicated copy (Spark-style lineage
  // fault tolerance instead of replication).
  const int repl =
      tier == StorageTier::kMemory
          ? 1
          : std::min(config_.replication, static_cast<int>(live.size()));

  // Placement base: FNV-1a of the path, advanced per block. A function of
  // the file alone — NOT a shared counter — so concurrent writers racing on
  // commit order still produce the same replica layout every run (chaos
  // re-replication totals depend on which blocks lived on the dead node, so
  // placement must be deterministic for same-seed runs to be bit-identical).
  std::uint64_t base = 14695981039346656037ull;
  for (char c : path) {
    base ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    base *= 1099511628211ull;
  }

  // Rack-aware placement (HDFS default policy) and pipeline transfer
  // recording only apply under a racked topology; the flat path below stays
  // byte-for-byte what it always was.
  const bool racked = racked_topology() && tier == StorageTier::kDisk;
  const net::Topology* topo = racked ? topology_.get() : nullptr;
  const bool rack_aware =
      topo != nullptr && topo->options().rack_aware_placement;
  TransferLog* log = racked ? current_transfer_log() : nullptr;
  const int writer =
      (log != nullptr && log->node >= 0 && log->node < num_datanodes())
          ? log->node
          : -1;
  const bool writer_alive =
      writer >= 0 && std::find(live.begin(), live.end(), writer) != live.end();
  // Memory-tier placement is writer-local regardless of topology: the
  // producing task keeps its output in its own node's memory (the SPIN
  // model), which is what makes the consumer's node-local cache hit
  // possible. Falls back to the hash policy when no task context is
  // installed (driver-side writes) or the writer's node is dead.
  TransferLog* any_log = current_transfer_log();
  const int task_node =
      (any_log != nullptr && any_log->node >= 0 &&
       any_log->node < num_datanodes())
          ? any_log->node
          : -1;
  const bool mem_local_write =
      tier == StorageTier::kMemory && task_node >= 0 &&
      std::find(live.begin(), live.end(), task_node) != live.end();

  // Erasure coding applies to disk-tier files only; memory-tier copies keep
  // the SPIN single-copy model (lineage, not parity, recovers them).
  const bool ec_file = tier == StorageTier::kDisk &&
                       config_.storage_policy == StoragePolicy::kErasureCoded;
  if (ec_file) {
    MRI_CHECK_MSG(static_cast<int>(live.size()) >= config_.ec.cells(),
                  "cannot stripe " << path << " as RS(" << config_.ec.k << ","
                                   << config_.ec.m << "): only " << live.size()
                                   << " datanodes are alive but a stripe "
                                      "needs " << config_.ec.cells());
  }
  std::optional<ec::RsCodec> codec;
  if (ec_file) codec.emplace(config_.ec.k, config_.ec.m);
  std::uint64_t parity_bytes = 0;     // m parity cells per stripe, on disk
  std::uint64_t redundancy_net = 0;   // (k+m-1) cells per stripe, pipelined
  // Hot-block cache candidacy: disk-tier files named like the repeatedly
  // re-read factors. The full-block payloads are retained namenode-side.
  const bool hot_candidate =
      config_.hot_cache_bytes > 0 && tier == StorageTier::kDisk &&
      basename(path).starts_with(kHotFilePrefix);
  std::vector<BlockData> full_blocks;
  std::vector<BlockId> full_block_ids;
  // Write-path checksumming (HDFS computes block checksums client-side on
  // write): one CRC32C per replicated block, one per EC cell.
  std::uint64_t checksummed_bytes = 0;
  std::int64_t checksummed_cells = 0;

  std::vector<BlockLocation> locations;
  std::size_t offset = 0;
  // Split into blocks; zero-length files get zero blocks.
  while (offset < buffer.size()) {
    const std::size_t len = std::min(config_.block_size, buffer.size() - offset);
    auto payload = std::make_shared<std::vector<std::byte>>(
        buffer.begin() + static_cast<std::ptrdiff_t>(offset),
        buffer.begin() + static_cast<std::ptrdiff_t>(offset + len));
    BlockLocation loc;
    loc.id = next_block_id_.fetch_add(1);
    loc.length = len;
    ++base;
    if (ec_file) {
      // One block = one RS stripe: k data cells (zero-padded to equal
      // length) plus m parity cells, each on its own node.
      loc.ec_k = config_.ec.k;
      loc.ec_m = config_.ec.m;
      const int cells = config_.ec.cells();
      const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
      std::vector<BlockData> cell_payloads;
      cell_payloads.reserve(static_cast<std::size_t>(cells));
      std::vector<const std::uint8_t*> data_ptrs;
      for (int i = 0; i < loc.ec_k; ++i) {
        auto cell =
            std::make_shared<std::vector<std::byte>>(cell_len, std::byte{0});
        const std::size_t begin = static_cast<std::size_t>(i) * cell_len;
        if (begin < len) {
          std::memcpy(cell->data(), buffer.data() + offset + begin,
                      std::min(cell_len, len - begin));
        }
        data_ptrs.push_back(
            reinterpret_cast<const std::uint8_t*>(cell->data()));
        cell_payloads.push_back(std::move(cell));
      }
      for (const auto& p : codec->encode(data_ptrs, cell_len)) {
        auto cell = std::make_shared<std::vector<std::byte>>(cell_len);
        std::memcpy(cell->data(), p.data(), cell_len);
        cell_payloads.push_back(std::move(cell));
      }
      // Placement: every cell on a distinct node. Rack-aware: first cell
      // writer-local (reads of healthy stripes start with a local cell),
      // the rest round-robin across the other racks so any single rack
      // loss costs at most a few cells per stripe. Flat: k+m consecutive
      // live nodes from the path hash.
      if (rack_aware) {
        const int first =
            writer_alive ? writer
                         : live[static_cast<std::size_t>(base % live.size())];
        loc.replicas.push_back(first);
        const int home_rack = topo->rack_of(first);
        std::map<int, std::vector<int>> by_rack;
        for (int n : live) {
          if (n != first) by_rack[topo->rack_of(n)].push_back(n);
        }
        std::vector<int> rack_order;
        rack_order.reserve(by_rack.size());
        for (const auto& [r, nodes] : by_rack) rack_order.push_back(r);
        const auto past_home = std::upper_bound(rack_order.begin(),
                                                rack_order.end(), home_rack);
        std::rotate(rack_order.begin(), past_home, rack_order.end());
        std::map<int, std::size_t> cursor;
        while (static_cast<int>(loc.replicas.size()) < cells) {
          bool progress = false;
          for (int r : rack_order) {
            if (static_cast<int>(loc.replicas.size()) == cells) break;
            const auto& nodes = by_rack[r];
            std::size_t& next = cursor[r];
            if (next < nodes.size()) {
              loc.replicas.push_back(nodes[next++]);
              progress = true;
            }
          }
          MRI_CHECK(progress);  // live >= cells, so nodes can't run out
        }
      } else {
        for (int i = 0; i < cells; ++i) {
          loc.replicas.push_back(live[static_cast<std::size_t>(
              (base + static_cast<std::uint64_t>(i)) % live.size())]);
        }
      }
      if (log != nullptr && writer >= 0) {
        // EC writes stream cells from the client in a star, not a pipeline.
        for (int holder : loc.replicas) {
          if (holder == writer) continue;
          log->transfers.push_back(net::Transfer{
              writer, holder, cell_len, net::TransferKind::kWrite});
        }
      }
      for (int i = 0; i < cells; ++i) {
        datanodes_[static_cast<std::size_t>(loc.replicas[
            static_cast<std::size_t>(i)])]
            ->put(loc.id, cell_payloads[static_cast<std::size_t>(i)]);
      }
      if (config_.verify_checksums) {
        std::vector<std::uint32_t> cell_crcs;
        cell_crcs.reserve(cell_payloads.size());
        for (const auto& cp : cell_payloads) {
          cell_crcs.push_back(crc32c(std::span<const std::byte>(*cp)));
        }
        checksums_.record(loc.id, std::move(cell_crcs));
        checksummed_cells += cells;
        checksummed_bytes += static_cast<std::uint64_t>(cells) * cell_len;
      }
      parity_bytes += static_cast<std::uint64_t>(loc.ec_m) * cell_len;
      redundancy_net += static_cast<std::uint64_t>(cells - 1) * cell_len;
      if (hot_candidate) {
        full_blocks.push_back(payload);
        full_block_ids.push_back(loc.id);
      }
      locations.push_back(std::move(loc));
      offset += len;
      continue;
    }
    if (rack_aware) {
      // HDFS default policy: first replica on the writer (every client is a
      // datanode here), second rack-local, third off-rack. Hash-pick within
      // each candidate set so the layout stays a deterministic function of
      // the path; fall back to any unused live node when a set is empty
      // (single-rack clusters, mostly-dead racks).
      const auto taken = [&loc](int n) {
        return std::find(loc.replicas.begin(), loc.replicas.end(), n) !=
               loc.replicas.end();
      };
      const auto pick = [&](const auto& eligible, std::uint64_t h) {
        std::vector<int> cand;
        for (int n : live) {
          if (!taken(n) && eligible(n)) cand.push_back(n);
        }
        if (cand.empty()) {
          for (int n : live) {
            if (!taken(n)) cand.push_back(n);
          }
        }
        MRI_CHECK(!cand.empty());
        return cand[static_cast<std::size_t>(h % cand.size())];
      };
      const int first =
          writer_alive ? writer
                       : live[static_cast<std::size_t>(base % live.size())];
      loc.replicas.push_back(first);
      const int home_rack = topo->rack_of(first);
      if (repl >= 2) {
        loc.replicas.push_back(pick(
            [&](int n) { return topo->rack_of(n) == home_rack; }, base + 1));
      }
      for (int r = 2; r < repl; ++r) {
        loc.replicas.push_back(
            pick([&](int n) { return topo->rack_of(n) != home_rack; },
                 base + static_cast<std::uint64_t>(r)));
      }
    } else if (mem_local_write) {
      loc.replicas.push_back(task_node);  // repl == 1 on the memory tier
    } else {
      for (int r = 0; r < repl; ++r) {
        loc.replicas.push_back(
            live[static_cast<std::size_t>(
                (base + static_cast<std::uint64_t>(r)) % live.size())]);
      }
    }
    if (log != nullptr) {
      // The write pipeline: the writer streams to the first replica, which
      // forwards to the second, and so on. Without rack awareness the first
      // replica usually isn't the writer's node — that extra hop is real
      // network traffic the rack-aware policy exists to remove.
      if (writer >= 0 && writer != loc.replicas.front()) {
        log->transfers.push_back(net::Transfer{
            writer, loc.replicas.front(), len, net::TransferKind::kWrite});
      }
      for (std::size_t r = 1; r < loc.replicas.size(); ++r) {
        log->transfers.push_back(net::Transfer{loc.replicas[r - 1],
                                               loc.replicas[r], len,
                                               net::TransferKind::kWrite});
      }
    }
    BlockData shared = payload;
    for (int node : loc.replicas) {
      datanodes_[static_cast<std::size_t>(node)]->put(loc.id, shared);
    }
    if (config_.verify_checksums) {
      checksums_.record(loc.id,
                        {crc32c(std::span<const std::byte>(*payload))});
      ++checksummed_cells;
      checksummed_bytes += len;
    }
    if (hot_candidate) {
      full_blocks.push_back(payload);
      full_block_ids.push_back(loc.id);
    }
    locations.push_back(std::move(loc));
    offset += len;
  }

  const int home =
      locations.empty() ? task_node : locations.front().replicas.front();
  const std::uint64_t stripes = locations.size();
  namenode_.commit_file(path, std::move(locations), overwrite, tier);

  if (hot_candidate) {
    std::lock_guard<std::mutex> lock(hot_mu_);
    hot_candidates_[path] =
        HotFile{total, std::move(full_blocks), std::move(full_block_ids), {}};
    recompute_hot_residents_locked();
  }

  if (checksummed_cells > 0) {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    integrity_.cells_checksummed += checksummed_cells;
  }

  if (charge) {
    IoStats io;
    if (tier == StorageTier::kMemory) {
      io.bytes_written_memory = total;
    } else if (ec_file) {
      // Logical data at disk bandwidth, parity cells as extra disk traffic,
      // and the (k+m-1) remote cells per stripe as pipelined network — the
      // EC analogue of replication's (repl-1) full copies.
      io.bytes_written = total;
      io.bytes_parity = parity_bytes;
      io.bytes_replicated = redundancy_net;
      io.bytes_transferred = redundancy_net;
    } else {
      io.bytes_written = total;
      io.bytes_replicated =
          total * static_cast<std::uint64_t>(std::max(repl - 1, 0));
      io.bytes_transferred = io.bytes_replicated;
    }
    io.bytes_checksummed = checksummed_bytes;
    if (account != nullptr) *account += io;
    if (metrics_ != nullptr) {
      metrics_->add_io(io);
      if (ec_file && stripes > 0) {
        metrics_->increment("dfs_ec_stripes_written", stripes);
      }
    }
  }

  if (notify && tier == StorageTier::kMemory) {
    // Fired outside every DFS lock; `account` already includes this write,
    // so the listener's production-IoStats snapshot is the full task cost.
    if (TierListener* listener = tier_listener_.load(std::memory_order_acquire)) {
      listener->on_commit(path, tier, total, home,
                          std::span<const std::byte>(buffer.data(),
                                                     buffer.size()),
                          account);
    }
  }
}

// ---------------------------------------------------------------------------
// Reader

Dfs::Reader::Reader(std::vector<BlockData> blocks, std::vector<int> sources,
                    std::vector<bool> mem_local, std::uint64_t size,
                    IoStats* account, MetricsRegistry* metrics,
                    bool record_transfers)
    : blocks_(std::move(blocks)),
      sources_(std::move(sources)),
      mem_local_(std::move(mem_local)),
      size_(size),
      account_(account),
      metrics_(metrics),
      record_transfers_(record_transfers) {}

void Dfs::Reader::account(std::uint64_t bytes, std::uint64_t memory_bytes) {
  IoStats io;
  io.bytes_read = bytes;
  io.bytes_transferred = bytes;  // HDFS read = remote read in the paper model
  // Node-local memory-tier chunks are a cache hit: charged at memory
  // bandwidth, no disk or network component.
  io.bytes_read_memory = memory_bytes;
  if (account_ != nullptr) *account_ += io;
  if (metrics_ != nullptr) metrics_->add_io(io);
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

BlockData Dfs::read_replica(const BlockLocation& loc, std::size_t index,
                            const std::string& path, int* source) const {
  if (source != nullptr) *source = -1;
  if (loc.replicas.empty()) {
    // Every replica died with its datanode (namenode repair keeps the block
    // registered precisely so this read fails fast and loudly).
    throw UnrecoverableBlock(
        "block " + std::to_string(index) + " of " + path +
        ": all replicas lost to dead datanodes; the data is unrecoverable");
  }
  // Under a rack-aware topology HDFS reads the closest replica: node-local
  // first, then rack-local, then anything live. The flat model keeps the
  // placement order (bit-identical failover behaviour).
  std::vector<int> order(loc.replicas.begin(), loc.replicas.end());
  if (racked_topology() && topology_->options().rack_aware_placement) {
    const TransferLog* log = current_transfer_log();
    if (log != nullptr && log->node >= 0 && log->node < num_datanodes()) {
      const int me = log->node;
      const int my_rack = topology_->rack_of(me);
      const auto distance = [&](int n) {
        if (n == me) return 0;
        return topology_->rack_of(n) == my_rack ? 1 : 2;
      };
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return distance(a) < distance(b);
      });
    }
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
    repair_corrupt_copy(loc, path, namenode_.file_tier(path), chosen, -1,
                        mark->at, /*by_scrubber=*/false, nullptr);
  }
  if (config_.verify_checksums) verify_copy(loc, chosen, -1);
  return datanodes_[static_cast<std::size_t>(chosen)]->get(loc.id);
}

BlockData Dfs::read_stripe(const BlockLocation& loc, std::size_t index,
                           const std::string& path, IoStats* account) const {
  const int cells = loc.ec_k + loc.ec_m;
  MRI_CHECK_MSG(static_cast<int>(loc.replicas.size()) == cells,
                "EC block " << index << " of " << path << " has "
                            << loc.replicas.size() << " cell slots, expected "
                            << cells);
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
        "EC block " + std::to_string(index) + " of " + path + ": " +
        std::to_string(corrupt_cells.size()) +
        " stripe cells failed checksum verification and only " +
        std::to_string(live) + " clean cells remain but decoding needs " +
        std::to_string(loc.ec_k) + "; the data is unrecoverable");
  }
  if (live < loc.ec_k) {
    if (failed_over > 0) {
      throw DfsError("read of EC block " + std::to_string(index) + " of " +
                     path + " has only " + std::to_string(live) + " of " +
                     std::to_string(loc.ec_k) +
                     " required cells after injected read errors; transient "
                     "— retry the read");
    }
    throw UnrecoverableBlock(
        "EC block " + std::to_string(index) + " of " + path + ": only " +
        std::to_string(live) + " of " + std::to_string(cells) +
        " stripe cells survive but decoding needs " +
        std::to_string(loc.ec_k) + "; the data is unrecoverable");
  }
  if (failed_over > 0 && metrics_ != nullptr) {
    metrics_->increment("dfs_read_errors_survived",
                        static_cast<std::uint64_t>(failed_over));
  }
  // Fetch the first k available cells in slot order — data cells first, so
  // a healthy stripe is a plain concatenation with no decode.
  std::vector<const std::uint8_t*> cell_ptrs(static_cast<std::size_t>(cells),
                                             nullptr);
  std::vector<BlockData> pins;  // keep fetched payloads alive
  std::vector<int> chosen;
  for (int i = 0; i < cells && static_cast<int>(chosen.size()) < loc.ec_k;
       ++i) {
    if (!available[static_cast<std::size_t>(i)]) continue;
    BlockData cell = datanodes_[static_cast<std::size_t>(
                                    loc.replicas[static_cast<std::size_t>(i)])]
                         ->get(loc.id);
    // With verification off a corrupt cell is still "available" — the fetch
    // succeeds and silently delivers the bit-flipped view.
    if (auto mark = checksums_.corrupt_mark(
            loc.id, loc.replicas[static_cast<std::size_t>(i)])) {
      cell = corrupt_copy(cell, mark->salt);
    }
    cell_ptrs[static_cast<std::size_t>(i)] =
        reinterpret_cast<const std::uint8_t*>(cell->data());
    pins.push_back(std::move(cell));
    chosen.push_back(i);
  }
  std::vector<int> missing_data;
  for (int i = 0; i < loc.ec_k; ++i) {
    if (cell_ptrs[static_cast<std::size_t>(i)] == nullptr) {
      missing_data.push_back(i);
    }
  }
  std::vector<std::vector<std::uint8_t>> rebuilt;
  if (!missing_data.empty()) {
    const ec::RsCodec codec(loc.ec_k, loc.ec_m);
    rebuilt = codec.reconstruct(cell_ptrs, cell_len, missing_data);
  }
  // Reassemble the logical block payload from the k data cells.
  auto out = std::make_shared<std::vector<std::byte>>(
      static_cast<std::size_t>(loc.length));
  std::size_t pos = 0;
  std::size_t next_rebuilt = 0;
  for (int i = 0; i < loc.ec_k && pos < loc.length; ++i) {
    const std::uint8_t* src = cell_ptrs[static_cast<std::size_t>(i)];
    if (src == nullptr) src = rebuilt[next_rebuilt++].data();
    const std::size_t take =
        std::min(cell_len, static_cast<std::size_t>(loc.length) - pos);
    std::memcpy(out->data() + pos, src, take);
    pos += take;
  }
  // Under a racked topology the k cell fetches are recorded as read
  // transfers at open time (striped readers fetch whole cells); the Reader
  // then charges the scalar bytes without re-recording (source = -1).
  if (racked_topology()) {
    TransferLog* log = current_transfer_log();
    if (log != nullptr && log->node >= 0 && log->node < num_datanodes()) {
      for (int i : chosen) {
        log->transfers.push_back(
            net::Transfer{loc.replicas[static_cast<std::size_t>(i)], log->node,
                          cell_len, net::TransferKind::kRead});
      }
    }
  }
  if (!missing_data.empty()) {
    // Degraded read: same bytes fetched as a healthy one (k cells either
    // way), but the lost data cells had to be decoded — charge the decode
    // output at ec_decode_bandwidth via bytes_reconstructed.
    IoStats io;
    io.degraded_reads = 1;
    io.bytes_reconstructed =
        static_cast<std::uint64_t>(missing_data.size()) * cell_len;
    if (account != nullptr) *account += io;
    if (metrics_ != nullptr) metrics_->add_io(io);
  }
  if (config_.verify_checksums) {
    // Checksum CPU for the k cells this read actually served.
    const auto vbytes = static_cast<std::uint64_t>(chosen.size()) * cell_len;
    {
      std::lock_guard<std::mutex> lock(integrity_mu_);
      integrity_.cells_verified += static_cast<std::int64_t>(chosen.size());
      integrity_.bytes_verified += vbytes;
    }
    IoStats io;
    io.bytes_checksummed = vbytes;
    if (account != nullptr) *account += io;
    if (metrics_ != nullptr) metrics_->add_io(io);
    // Read-repair the cells verification knocked out of this read: decode
    // already proved the stripe has k clean survivors, so re-materialize
    // each bad cell in place (EC stripes are disk-tier by construction).
    for (const auto& [slot, mark] : corrupt_cells) {
      repair_corrupt_copy(loc, path, StorageTier::kDisk,
                          loc.replicas[static_cast<std::size_t>(slot)], slot,
                          mark.at, /*by_scrubber=*/false, nullptr);
    }
  }
  return out;
}

Dfs::Reader Dfs::open(const std::string& path, IoStats* account) const {
  const auto blocks = namenode_.file_blocks(path);
  const StorageTier tier = namenode_.file_tier(path);
  TransferLog* log = current_transfer_log();
  const int me =
      (log != nullptr && log->node >= 0 && log->node < num_datanodes())
          ? log->node
          : -1;
  std::vector<BlockData> data;
  std::vector<int> sources;
  std::vector<bool> mem_local;
  data.reserve(blocks.size());
  sources.reserve(blocks.size());
  std::uint64_t size = 0;
  // Namenode hot-block cache: a resident file is served from the
  // namenode's own copy — charged like any remote read, but immune to lost
  // cells/replicas and never paying the degraded-decode path.
  if (config_.hot_cache_bytes > 0) {
    const std::string norm = normalize(path);
    std::lock_guard<std::mutex> lock(hot_mu_);
    auto it = hot_candidates_.find(norm);
    if (it != hot_candidates_.end() && hot_resident_.count(norm) > 0 &&
        // A poisoned entry must not out-serve verification: skip the hit and
        // fall through to the datanode path, whose read-repair also clears
        // the cache poison (the staleness bug this gate closes).
        !(config_.verify_checksums && !it->second.corrupt.empty())) {
      ++hot_hits_;
      hot_hit_bytes_ += it->second.size;
      if (metrics_ != nullptr) {
        metrics_->increment("dfs_hot_cache_hits");
        metrics_->increment("dfs_hot_cache_hit_bytes", it->second.size);
      }
      if (TierListener* listener =
              tier_listener_.load(std::memory_order_acquire)) {
        if (log != nullptr) log->read_paths.push_back(norm);
        listener->on_open(norm, tier, it->second.size);
      }
      std::vector<BlockData> served = it->second.blocks;
      if (!it->second.corrupt.empty()) {
        // Verification off: the cache mirrors its corrupted replica, so the
        // hit silently serves the bit-flipped view.
        for (std::size_t i = 0; i < served.size(); ++i) {
          auto cit = it->second.corrupt.find(it->second.ids[i]);
          if (cit != it->second.corrupt.end()) {
            served[i] = corrupt_copy(served[i], cit->second);
          }
        }
      } else if (config_.verify_checksums) {
        // Clean hit with verification on still pays the checksum CPU.
        {
          std::lock_guard<std::mutex> ilock(integrity_mu_);
          integrity_.cells_verified +=
              static_cast<std::int64_t>(served.size());
          integrity_.bytes_verified += it->second.size;
        }
        IoStats io;
        io.bytes_checksummed = it->second.size;
        if (account != nullptr) *account += io;
        if (metrics_ != nullptr) metrics_->add_io(io);
      }
      std::vector<int> no_sources(served.size(), -1);
      return Reader(std::move(served), std::move(no_sources), {},
                    it->second.size, account, metrics_, racked_topology());
    }
  }
  for (std::size_t index = 0; index < blocks.size(); ++index) {
    const BlockLocation& loc = blocks[index];
    if (loc.is_ec()) {
      data.push_back(read_stripe(loc, index, path, account));
      sources.push_back(-1);  // transfers recorded per cell at open time
      size += loc.length;
      continue;
    }
    int src = -1;
    data.push_back(read_replica(loc, index, path, &src));
    sources.push_back(src);
    // A memory-tier block on the reader's own node streams at memory
    // bandwidth (the cache hit the SPIN engine exists to create); remote
    // memory blocks still pay the network fetch.
    if (tier == StorageTier::kMemory && src >= 0 && src == me) {
      if (mem_local.empty()) mem_local.assign(blocks.size(), false);
      mem_local[sources.size() - 1] = true;
    }
    size += loc.length;
  }
  if (TierListener* listener = tier_listener_.load(std::memory_order_acquire)) {
    // Record the task's read-set for lineage (per-thread, so deterministic
    // under any task interleaving), then let the engine bump cache recency.
    if (log != nullptr) log->read_paths.push_back(normalize(path));
    listener->on_open(normalize(path), tier, size);
  }
  return Reader(std::move(data), std::move(sources), std::move(mem_local),
                size, account, metrics_, racked_topology());
}

void Dfs::spill_to_disk(const std::string& path, IoStats* account) {
  const std::string norm = normalize(path);
  MRI_REQUIRE(namenode_.file_tier(norm) == StorageTier::kMemory,
              "spill_to_disk(" << norm << "): file is not memory-tier");
  namenode_.set_file_tier(norm, StorageTier::kDisk);
  IoStats io;
  io.bytes_spilled = namenode_.file_size(norm);
  if (account != nullptr) *account += io;
  if (metrics_ != nullptr) {
    metrics_->add_io(io);
    metrics_->increment("dfs_files_spilled");
    metrics_->increment("dfs_bytes_spilled", io.bytes_spilled);
  }
}

void Dfs::restore_file(const std::string& path,
                       std::span<const std::byte> payload, StorageTier tier) {
  const std::string norm = normalize(path);
  if (namenode_.exists(norm)) {
    // Drop the empty-replica skeleton (and any surviving replicas of a
    // partially lost file) without firing on_remove: the engine drives this
    // restore and keeps its lineage record alive.
    for (const auto& block : namenode_.remove(norm, false, nullptr)) {
      checksums_.forget(block.id);
      for (int n : block.replicas) {
        if (n < 0) continue;  // lost EC cell sentinel
        datanodes_[static_cast<std::size_t>(n)]->evict(block.id);
      }
    }
  }
  std::vector<std::byte> buffer(payload.begin(), payload.end());
  commit(norm, std::move(buffer), /*overwrite=*/false, /*account=*/nullptr,
         tier, /*charge=*/false, /*notify=*/false);
}

// ---------------------------------------------------------------------------
// Failures

NodeKillOutcome Dfs::kill_datanode(int node, double at) {
  MRI_REQUIRE(node >= 0 && node < num_datanodes(),
              "kill_datanode(" << node << ") on a DFS with "
                               << num_datanodes() << " datanodes");
  {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    if (dead_[static_cast<std::size_t>(node)]) return {};
    dead_[static_cast<std::size_t>(node)] = true;
  }

  // Re-replication target choice: the smallest-id live node not already
  // holding the block — deterministic, so same-seed runs place identical
  // repair copies. Under a rack-aware topology, prefer a target in the
  // source replica's rack (keeps the copy close, like HDFS's rack-aware
  // re-replication); the transfers are collected and flow-simulated below.
  const net::Topology* topo = racked_topology() ? topology_.get() : nullptr;
  std::vector<net::Transfer> repairs;
  std::uint64_t ec_fanin_bytes = 0;  // survivor-cell reads feeding decodes
  // Erasure-coded reconstruction of stripe cell `cell`: decode it from the
  // first k surviving cells onto the smallest-id live node not already
  // holding a cell of the stripe (k-cell fan-in traffic + decode CPU,
  // priced below), replacing the replicated copy path.
  const auto reconstruct = [this, topo, &repairs, &ec_fanin_bytes](
                               const BlockLocation& loc, int cell) -> int {
    int target = -1;
    {
      std::lock_guard<std::mutex> lock(chaos_mu_);
      std::vector<char> holds(dead_.size(), 0);
      for (int holder : loc.replicas) {
        if (holder >= 0) holds[static_cast<std::size_t>(holder)] = 1;
      }
      for (std::size_t i = 0; i < dead_.size(); ++i) {
        if (!dead_[i] && !holds[i]) {
          target = static_cast<int>(i);
          break;
        }
      }
    }
    if (target < 0) return -1;  // nowhere to rebuild; stay degraded
    const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
    std::vector<const std::uint8_t*> cell_ptrs(loc.replicas.size(), nullptr);
    std::vector<BlockData> pins;
    std::vector<int> used;
    for (std::size_t slot = 0;
         slot < loc.replicas.size() &&
         static_cast<int>(used.size()) < loc.ec_k;
         ++slot) {
      const int holder = loc.replicas[slot];
      if (holder < 0) continue;
      BlockData d = datanodes_[static_cast<std::size_t>(holder)]->get(loc.id);
      cell_ptrs[slot] = reinterpret_cast<const std::uint8_t*>(d->data());
      pins.push_back(std::move(d));
      used.push_back(static_cast<int>(slot));
    }
    if (static_cast<int>(used.size()) < loc.ec_k) return -1;
    const ec::RsCodec codec(loc.ec_k, loc.ec_m);
    auto rebuilt = codec.reconstruct(cell_ptrs, cell_len, {cell});
    auto payload = std::make_shared<std::vector<std::byte>>(cell_len);
    std::memcpy(payload->data(), rebuilt.front().data(), cell_len);
    datanodes_[static_cast<std::size_t>(target)]->put(loc.id,
                                                      std::move(payload));
    for (int slot : used) {
      const int holder = loc.replicas[static_cast<std::size_t>(slot)];
      if (topo != nullptr) {
        repairs.push_back(net::Transfer{holder, target, cell_len,
                                        net::TransferKind::kRepair});
      }
      ec_fanin_bytes += cell_len;
    }
    return target;
  };
  const auto replicate = [this, topo, &repairs,
                          &reconstruct](const BlockLocation& loc,
                                        int cell) -> int {
    if (cell >= 0) return reconstruct(loc, cell);
    int source = -1;
    int target = -1;
    {
      std::lock_guard<std::mutex> lock(chaos_mu_);
      for (int r : loc.replicas) {
        if (!dead_[static_cast<std::size_t>(r)]) {
          source = r;
          break;
        }
      }
      if (source < 0) return -1;
      const int source_rack =
          (topo != nullptr && topo->options().rack_aware_placement)
              ? topo->rack_of(source)
              : -1;
      int fallback = -1;
      for (std::size_t i = 0; i < dead_.size(); ++i) {
        if (dead_[i]) continue;
        const int candidate = static_cast<int>(i);
        if (std::find(loc.replicas.begin(), loc.replicas.end(), candidate) !=
            loc.replicas.end()) {
          continue;
        }
        if (fallback < 0) fallback = candidate;
        if (source_rack < 0 || topo->rack_of(candidate) == source_rack) {
          target = candidate;
          break;
        }
      }
      if (target < 0) target = fallback;
    }
    if (target < 0) return -1;
    datanodes_[static_cast<std::size_t>(target)]->put(
        loc.id, datanodes_[static_cast<std::size_t>(source)]->get(loc.id));
    if (topo != nullptr) {
      repairs.push_back(net::Transfer{source, target, loc.length,
                                      net::TransferKind::kRepair});
    }
    return target;
  };

  const BlockRepairSummary repaired =
      namenode_.repair_after_node_loss(node, config_.replication, replicate);
  datanodes_[static_cast<std::size_t>(node)]->clear();

  // Copies that died with the node take their rot with them: clear their
  // corrupt marks, and drop any hot-cache poison whose block no longer has
  // a corrupted live copy, so neither the datanode path nor the cache keeps
  // serving a corruption that no longer exists on disk. The hot entries
  // themselves stay — the namenode's cached payloads are unchanged by
  // re-replication/reconstruction and are the one copy that outlives even
  // total replica loss.
  bool marks_cleared = false;
  for (const auto& [block, holder] : checksums_.corrupt_copies()) {
    if (holder != node) continue;
    checksums_.clear_corrupt(block, holder);
    marks_cleared = true;
  }
  if (marks_cleared && config_.hot_cache_bytes > 0) {
    const auto live_marks = checksums_.corrupt_copies();
    const auto still_marked = [&live_marks](BlockId block) {
      for (const auto& mark : live_marks) {
        if (mark.first == block) return true;
      }
      return false;
    };
    std::lock_guard<std::mutex> lock(hot_mu_);
    for (auto& entry : hot_candidates_) {
      auto& poisoned = entry.second.corrupt;
      for (auto it = poisoned.begin(); it != poisoned.end();) {
        if (still_marked(it->first)) {
          ++it;
        } else {
          it = poisoned.erase(it);
        }
      }
    }
  }

  NodeKillOutcome out;
  out.re_replicated_bytes = repaired.re_replicated_bytes;
  out.re_replicated_blocks = repaired.re_replicated_blocks;
  out.blocks_lost = repaired.blocks_lost;
  out.lost_files = repaired.lost_files;
  out.ec_cells_reconstructed = repaired.ec_cells_reconstructed;
  out.ec_reconstructed_bytes = repaired.ec_reconstructed_bytes;
  // One repair duration combines replica copies, EC k-cell fan-ins and the
  // decode CPU, so the chaos engine's stretch accounting sees the whole
  // recovery, not just the copy traffic.
  out.re_replication_seconds =
      repair_seconds(repairs, out.re_replicated_bytes + ec_fanin_bytes);
  if (cost_model_ != nullptr) {
    out.re_replication_seconds +=
        cost_model_->ec_decode_seconds(out.ec_reconstructed_bytes);
  }
  if (out.ec_cells_reconstructed > 0) {
    std::lock_guard<std::mutex> lock(storage_mu_);
    storage_events_.push_back(StorageReconstructionEvent{
        at, node, out.ec_cells_reconstructed, out.ec_reconstructed_bytes,
        out.re_replication_seconds});
  }

  if (metrics_ != nullptr) {
    // Background datanode-to-datanode traffic (HDFS re-replication is not a
    // client read): network copies only, no client-side bytes_read. EC
    // reconstruction adds its survivor-cell fan-in as network traffic and
    // the rebuilt cells as decode output.
    IoStats io;
    io.bytes_replicated = out.re_replicated_bytes;
    io.bytes_transferred = out.re_replicated_bytes + ec_fanin_bytes;
    io.bytes_reconstructed = out.ec_reconstructed_bytes;
    metrics_->add_io(io);
    metrics_->increment("dfs_nodes_killed");
    metrics_->increment("dfs_blocks_re_replicated",
                        static_cast<std::uint64_t>(out.re_replicated_blocks));
    metrics_->increment("dfs_blocks_lost",
                        static_cast<std::uint64_t>(out.blocks_lost));
    if (out.ec_cells_reconstructed > 0) {
      metrics_->increment(
          "dfs_ec_cells_reconstructed",
          static_cast<std::uint64_t>(out.ec_cells_reconstructed));
    }
  }
  return out;
}

bool Dfs::datanode_dead(int node) const {
  MRI_REQUIRE(node >= 0 && node < num_datanodes(),
              "datanode_dead(" << node << ") on a DFS with "
                               << num_datanodes() << " datanodes");
  std::lock_guard<std::mutex> lock(chaos_mu_);
  return dead_[static_cast<std::size_t>(node)];
}

int Dfs::live_datanodes() const {
  std::lock_guard<std::mutex> lock(chaos_mu_);
  int live = 0;
  for (const bool d : dead_) {
    if (!d) ++live;
  }
  return live;
}

void Dfs::inject_read_error(int node, int count) {
  MRI_REQUIRE(node >= 0 && node < num_datanodes(),
              "inject_read_error(" << node << ") on a DFS with "
                                   << num_datanodes() << " datanodes");
  MRI_REQUIRE(count >= 1, "read-error count must be >= 1");
  std::lock_guard<std::mutex> lock(chaos_mu_);
  read_errors_[static_cast<std::size_t>(node)] += count;
}

void Dfs::bind_chaos(ChaosEngine* chaos, double network_bandwidth,
                     const CostModel* cost_model) {
  MRI_REQUIRE(chaos != nullptr, "bind_chaos() needs a chaos engine");
  chaos->set_kill_handler(
      [this](int node, double at) { return kill_datanode(node, at); });
  chaos->set_read_error_handler([this](int node) { inject_read_error(node); });
  chaos->set_corrupt_handler([this](int node, double at, std::uint64_t salt) {
    corrupt_block(node, at, salt);
  });
  chaos->set_scrub_handler([this](double t) { scrub_to(t); });
  chaos_network_bandwidth_ = network_bandwidth;
  cost_model_ = cost_model;
}

double Dfs::repair_seconds(const std::vector<net::Transfer>& transfers,
                           std::uint64_t bytes) const {
  if (racked_topology() && !transfers.empty()) {
    std::vector<net::Flow> flows;
    flows.reserve(transfers.size());
    for (const net::Transfer& t : transfers) {
      flows.push_back(net::Flow{t.src, t.dst, t.bytes, 0.0, -1});
    }
    return net::simulate_flows(*topology_, flows).end_time;
  }
  return chaos_network_bandwidth_ > 0.0
             ? static_cast<double>(bytes) / chaos_network_bandwidth_
             : 0.0;
}

// ---------------------------------------------------------------------------
// Integrity

void Dfs::corrupt_block(int node, double at, std::uint64_t salt) {
  MRI_REQUIRE(node >= 0 && node < num_datanodes(),
              "corrupt_block(" << node << ") on a DFS with "
                               << num_datanodes() << " datanodes");
  {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    if (dead_[static_cast<std::size_t>(node)]) return;
  }
  // Candidate copies on this node. `primary` marks a copy a healthy read
  // actually serves (first replica of a replicated block, data cell of a
  // stripe), so explicit events poison bytes a reader will see rather than
  // a passive redundancy copy.
  // Block numbering follows commit order, which races across task threads,
  // so nothing here may depend on ids: the pick orders by (bytes, path,
  // block index) and the salt hashes the path — both stable across runs.
  struct Candidate {
    BlockId id = 0;
    std::uint64_t bytes = 0;
    bool primary = false;
    std::string path;
    int index = 0;  // position of the block within its file
  };
  std::vector<Candidate> candidates;
  for (const auto& file : namenode_.snapshot_files()) {
    int index = 0;
    for (const auto& loc : file.blocks) {
      if (loc.is_ec()) {
        for (std::size_t slot = 0; slot < loc.replicas.size(); ++slot) {
          if (loc.replicas[slot] != node) continue;
          candidates.push_back(Candidate{loc.id, loc.cell_bytes(),
                                         static_cast<int>(slot) < loc.ec_k,
                                         file.path, index});
        }
        ++index;
        continue;
      }
      for (std::size_t r = 0; r < loc.replicas.size(); ++r) {
        if (loc.replicas[r] != node) continue;
        candidates.push_back(
            Candidate{loc.id, loc.length, r == 0, file.path, index});
      }
      ++index;
    }
  }
  if (candidates.empty()) return;
  const Candidate* pick = nullptr;
  std::uint64_t eff_salt = salt;
  if (salt == 0) {
    // Explicit --corrupt-block event: the node's largest primary copy
    // (ties: first in path then file order) — matrix data, not a tiny
    // metadata file.
    bool any_primary = false;
    for (const auto& c : candidates) any_primary = any_primary || c.primary;
    for (const auto& c : candidates) {
      if (any_primary && !c.primary) continue;
      if (pick == nullptr || c.bytes > pick->bytes ||
          (c.bytes == pick->bytes &&
           (c.path < pick->path ||
            (c.path == pick->path && c.index < pick->index)))) {
        pick = &c;
      }
    }
    // Deterministic per-victim bit pattern; | 1 keeps the salt nonzero.
    std::uint64_t hash = 1469598103934665603ull;  // FNV-1a over the path
    for (const char ch : pick->path) {
      hash = (hash ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    }
    hash ^= static_cast<std::uint64_t>(pick->index) * 0x100000001b3ull;
    eff_salt = (0x9e3779b97f4a7c15ull ^ hash ^
                (static_cast<std::uint64_t>(node) + 1ull)) |
               1ull;
  } else {
    // Background bit-rot: the salt doubles as the (already seeded) pick.
    pick = &candidates[static_cast<std::size_t>(salt % candidates.size())];
  }
  // First corruption wins; a repeat hit on an already-bad copy is a no-op
  // so corruptions_injected == corruptions the reader can observe.
  if (!checksums_.mark_corrupt(pick->id, node, eff_salt, at)) return;
  {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    ++integrity_.corruptions_injected;
  }
  if (config_.hot_cache_bytes > 0) {
    // The cached copy rots with its replica until a repair clears it.
    std::lock_guard<std::mutex> lock(hot_mu_);
    auto it = hot_candidates_.find(pick->path);
    if (it != hot_candidates_.end()) it->second.corrupt[pick->id] = eff_salt;
  }
}

bool Dfs::verify_copy(const BlockLocation& loc, int node, int slot) const {
  BlockData data = datanodes_[static_cast<std::size_t>(node)]->get(loc.id);
  const auto len = static_cast<std::uint64_t>(data->size());
  {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    ++integrity_.cells_verified;
    integrity_.bytes_verified += len;
  }
  if (metrics_ != nullptr) {
    IoStats io;
    io.bytes_checksummed = len;
    metrics_->add_io(io);
  }
  const auto expected = checksums_.expected(loc.id, slot < 0 ? 0 : slot);
  if (!expected) return false;  // committed before checksumming was enabled
  // Recompute the CRC over the bytes a read would actually serve: the
  // pristine payload, or its bit-flipped overlay when the copy is marked.
  BlockData served = data;
  if (auto mark = checksums_.corrupt_mark(loc.id, node)) {
    served = corrupt_copy(data, mark->salt);
  }
  return crc32c(std::span<const std::byte>(*served)) != *expected;
}

double Dfs::repair_corrupt_copy(const BlockLocation& loc,
                                const std::string& path, StorageTier tier,
                                int node, int slot, double at,
                                bool by_scrubber,
                                std::vector<net::Transfer>* flows) const {
  // The clear doubles as the claim: under racing readers exactly one caller
  // gets true, so every corruption is detected, repaired and counted once.
  if (!checksums_.clear_corrupt(loc.id, node)) return 0.0;
  const std::string norm = normalize(path);
  double seconds = 0.0;
  const char* kind = "copy";
  std::uint64_t bytes = loc.length;
  IoStats io;
  TierListener* listener = tier_listener_.load(std::memory_order_acquire);
  if (tier == StorageTier::kMemory) {
    // Single-copy memory tier: no replica or parity to copy from — the
    // engine recomputes the partition from lineage. Without an engine the
    // repair is free in time (the pristine in-sim payload simply stops
    // being served corrupted).
    kind = "lineage";
    seconds = listener != nullptr ? listener->on_corrupt(norm, at) : 0.0;
  } else if (loc.is_ec()) {
    // Decode the bad cell from k clean survivors and ship it back.
    kind = "ec";
    bytes = loc.cell_bytes();
    io.bytes_reconstructed = bytes;
    io.bytes_transferred = bytes;
  } else {
    // Re-materialize the block from a healthy replica.
    io.bytes_replicated = loc.length;
    io.bytes_transferred = loc.length;
  }
  if (metrics_ != nullptr &&
      (io.bytes_transferred > 0 || io.bytes_reconstructed > 0)) {
    metrics_->add_io(io);
  }
  if (flows != nullptr && racked_topology() && tier != StorageTier::kMemory) {
    // Repair traffic crosses the fabric from the first live healthy holder.
    int repair_source = -1;
    {
      std::lock_guard<std::mutex> lock(chaos_mu_);
      for (int holder : loc.replicas) {
        if (holder < 0 || holder == node) continue;
        if (dead_[static_cast<std::size_t>(holder)]) continue;
        repair_source = holder;
        break;
      }
    }
    if (repair_source >= 0) {
      flows->push_back(
          net::Transfer{repair_source, node, bytes, net::TransferKind::kRepair});
    }
  }
  if (config_.hot_cache_bytes > 0) {
    std::lock_guard<std::mutex> lock(hot_mu_);
    auto it = hot_candidates_.find(norm);
    if (it != hot_candidates_.end()) it->second.corrupt.erase(loc.id);
  }
  {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    ++integrity_.corruptions_detected;
    ++integrity_.cells_quarantined;
    if (std::strcmp(kind, "ec") == 0) {
      ++integrity_.cells_repaired_ec;
    } else if (std::strcmp(kind, "lineage") == 0) {
      ++integrity_.cells_repaired_lineage;
    } else {
      ++integrity_.cells_repaired_copy;
    }
    integrity_.repairs.push_back(IntegrityRepairEvent{
        at, node, norm, slot < 0 ? 0 : slot, bytes, kind, by_scrubber});
  }
  return seconds;
}

void Dfs::scrub_to(double now) {
  if (!config_.verify_checksums || config_.scrub_interval_seconds <= 0.0) {
    return;
  }
  if (next_scrub_at_ == 0.0) next_scrub_at_ = config_.scrub_interval_seconds;
  while (next_scrub_at_ <= now) {
    run_scrub_pass(next_scrub_at_);
    next_scrub_at_ += config_.scrub_interval_seconds;
  }
}

void Dfs::run_scrub_pass(double at) {
  std::vector<net::Transfer> flows;
  std::map<int, std::uint64_t> node_bytes;
  std::uint64_t scanned = 0;
  std::uint64_t repair_bytes = 0;
  std::int64_t cells = 0;
  std::int64_t repaired = 0;
  double lineage_seconds = 0.0;
  for (const auto& file : namenode_.snapshot_files()) {
    for (const auto& loc : file.blocks) {
      for (std::size_t s = 0; s < loc.replicas.size(); ++s) {
        const int holder = loc.replicas[s];
        if (holder < 0) continue;  // lost EC cell sentinel
        {
          std::lock_guard<std::mutex> lock(chaos_mu_);
          if (dead_[static_cast<std::size_t>(holder)]) continue;
        }
        const std::uint64_t len = loc.is_ec() ? loc.cell_bytes() : loc.length;
        const int slot = loc.is_ec() ? static_cast<int>(s) : -1;
        node_bytes[holder] += len;
        scanned += len;
        ++cells;
        if (verify_copy(loc, holder, slot)) {
          lineage_seconds += repair_corrupt_copy(loc, file.path, file.tier,
                                                 holder, slot, at,
                                                 /*by_scrubber=*/true, &flows);
          ++repaired;
          repair_bytes += len;
        }
      }
    }
  }
  // Pass duration: every node scrubs its own copies in parallel at disk
  // bandwidth (the slowest node paces the pass), plus the checksum CPU over
  // everything scanned, plus repair traffic — flow-simulated across the
  // racked fabric when one is attached — and any lineage recomputes.
  double pass_seconds = lineage_seconds;
  if (cost_model_ != nullptr) {
    std::uint64_t max_node_bytes = 0;
    for (const auto& [n, b] : node_bytes) {
      max_node_bytes = std::max(max_node_bytes, b);
    }
    pass_seconds +=
        static_cast<double>(max_node_bytes) / cost_model_->disk_bandwidth +
        cost_model_->checksum_seconds(scanned);
  }
  pass_seconds += repair_seconds(flows, repair_bytes);
  std::lock_guard<std::mutex> lock(integrity_mu_);
  ++integrity_.scrub_passes;
  integrity_.scrub_bytes_scanned += scanned;
  integrity_.scrub_seconds += pass_seconds;
  integrity_.scrubs.push_back(
      ScrubPassEvent{at, pass_seconds, scanned, cells, repaired});
}

IntegrityStats Dfs::integrity_stats() const {
  std::lock_guard<std::mutex> lock(integrity_mu_);
  return integrity_;
}

// ---------------------------------------------------------------------------
// Convenience

void Dfs::write_doubles(const std::string& path, std::span<const double> values,
                        IoStats* account) {
  Writer w = create(path, account);
  w.write_doubles(values);
  w.close();
}

std::vector<double> Dfs::read_doubles(const std::string& path,
                                      IoStats* account) const {
  return open(path, account).read_all_doubles();
}

void Dfs::write_text(const std::string& path, std::string_view text,
                     IoStats* account) {
  Writer w = create(path, account);
  w.write_text(text);
  w.close();
}

std::string Dfs::read_text(const std::string& path, IoStats* account) const {
  return open(path, account).read_all_text();
}

std::uint64_t Dfs::physical_bytes_stored() const {
  std::uint64_t total = 0;
  for (const auto& node : datanodes_) total += node->bytes_stored();
  return total;
}

std::vector<StorageReconstructionEvent> Dfs::storage_events() const {
  std::lock_guard<std::mutex> lock(storage_mu_);
  return storage_events_;
}

void Dfs::recompute_hot_residents_locked() const {
  hot_resident_.clear();
  hot_resident_bytes_ = 0;
  // Greedy admission over candidate paths in sorted (map) order: a pure
  // function of the candidate set, independent of commit interleaving — the
  // property that keeps same-seed runs bit-identical under task-thread
  // races. (Hot files are written and read in different phases, so the set
  // is stable by the time the hits matter.)
  for (const auto& [path, file] : hot_candidates_) {
    if (hot_resident_bytes_ + file.size > config_.hot_cache_bytes) continue;
    hot_resident_.insert(path);
    hot_resident_bytes_ += file.size;
  }
}

HotCacheStats Dfs::hot_cache_stats() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  HotCacheStats s;
  s.capacity_bytes = config_.hot_cache_bytes;
  s.resident_bytes = hot_resident_bytes_;
  s.resident_files = static_cast<int>(hot_resident_.size());
  s.hits = hot_hits_;
  s.hit_bytes = hot_hit_bytes_;
  return s;
}

}  // namespace mri::dfs

// Dfs: construction, the namespace operations and the write path.
#include "dfs/dfs.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "common/error.hpp"
#include "dfs/ec/rs_codec.hpp"
#include "dfs/integrity/crc32c.hpp"
#include "dfs/path.hpp"

namespace mri::dfs {

namespace {
thread_local TransferLog* t_transfer_log = nullptr;
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
  dead_.assign(static_cast<std::size_t>(num_datanodes), false);
  read_errors_.assign(static_cast<std::size_t>(num_datanodes), 0);
  if (config.hot_cache_bytes > 0) {
    hot_ = std::make_unique<HotCache>(config.hot_cache_bytes, metrics);
  }
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

int Dfs::task_node() const {
  const TransferLog* log = current_transfer_log();
  return log != nullptr && log->node >= 0 && log->node < num_datanodes()
             ? log->node
             : -1;
}

void Dfs::charge(const IoStats& io, IoStats* account) const {
  if (account != nullptr) *account += io;
  if (metrics_ != nullptr) metrics_->add_io(io);
}

void Dfs::charge_verified(std::int64_t cells, std::uint64_t bytes,
                          IoStats* account) const {
  checksums_.count_verified(cells, bytes);
  IoStats io;
  io.bytes_checksummed = bytes;
  charge(io, account);
}

void Dfs::remove(const std::string& path, bool recursive) {
  TierListener* listener = tier_listener_.load(std::memory_order_acquire);
  std::vector<std::string> removed_paths;
  checksums_.forget(namenode_.remove(
      path, recursive,
      listener != nullptr || hot_ != nullptr ? &removed_paths : nullptr));
  if (hot_ != nullptr) hot_->forget(removed_paths);
  if (listener != nullptr) {
    for (const std::string& p : removed_paths) listener->on_remove(p);
  }
}

// ---------------------------------------------------------------------------
// Writer

Dfs::Writer::Writer(Dfs* fs, std::string path, IoStats* account,
                    StorageTier tier)
    : fs_(fs), path_(std::move(path)), account_(account), tier_(tier) {}

Dfs::Writer::Writer(Writer&& other) noexcept
    : fs_(other.fs_),
      path_(std::move(other.path_)),
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
  fs_->commit(path_,
              {std::make_shared<const std::vector<std::byte>>(
                  std::move(buffer_))},
              account_, tier_);
}

Dfs::Writer Dfs::create(const std::string& path, IoStats* account,
                        StorageTier tier) {
  return Writer(this, normalize(path), account, tier);
}

void Dfs::commit(const std::string& path, std::vector<BlockData> pieces,
                 IoStats* account, StorageTier tier, bool charged,
                 bool notify) {
  std::uint64_t total = 0;
  for (const BlockData& piece : pieces) total += piece->size();
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
  const auto is_live = [&live](int n) {
    return n >= 0 && std::find(live.begin(), live.end(), n) != live.end();
  };
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
  std::uint64_t base = path_hash(path);

  // Rack-aware placement (HDFS default policy) and pipeline transfer
  // recording only apply under a racked topology; the flat path below stays
  // byte-for-byte what it always was.
  const bool racked = racked_topology() && tier == StorageTier::kDisk;
  const net::Topology* topo =
      racked && topology_->options().rack_aware_placement ? topology_.get()
                                                          : nullptr;
  TransferLog* log = racked ? current_transfer_log() : nullptr;
  const int task = task_node();
  const int writer = racked ? task : -1;
  // Memory-tier placement is writer-local regardless of topology: the
  // producing task keeps its output in its own node's memory (the SPIN
  // model), which is what makes the consumer's node-local cache hit
  // possible. Falls back to the hash policy when no task context is
  // installed (driver-side writes) or the writer's node is dead.
  const bool mem_local_write = tier == StorageTier::kMemory && is_live(task);

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
  // Hot-block cache candidates keep their full-block payloads namenode-side.
  const bool hot_candidate = hot_ != nullptr && tier == StorageTier::kDisk &&
                             HotCache::candidate(path);
  std::vector<BlockData> full_blocks;
  std::vector<BlockId> full_block_ids;
  std::uint64_t checksummed_bytes = 0;
  std::int64_t checksummed_cells = 0;
  std::vector<BlockData> memory_blocks;  // handed to the tier listener

  std::vector<BlockLocation> locations;
  std::size_t offset = 0;
  std::size_t piece = 0;
  std::size_t piece_start = 0;  // file offset of pieces[piece]
  // Split into blocks; zero-length files get zero blocks.
  while (offset < total) {
    const std::size_t len = std::min(config_.block_size, total - offset);
    while (offset >= piece_start + pieces[piece]->size()) {
      piece_start += pieces[piece++]->size();
    }
    MRI_CHECK(offset - piece_start + len <= pieces[piece]->size());
    const auto block = std::span<const std::byte>(*pieces[piece])
                           .subspan(offset - piece_start, len);
    // The whole-block payload: a replicated block's one copy, or the bytes
    // the hot cache keeps for a candidate. An EC block stores cells only.
    BlockData payload = len == pieces[piece]->size() ? pieces[piece] : nullptr;
    if (payload == nullptr && (!ec_file || hot_candidate)) {
      payload = std::make_shared<const std::vector<std::byte>>(block.begin(),
                                                               block.end());
    }
    BlockLocation loc;
    loc.id = next_block_id_.fetch_add(1);
    loc.length = len;
    ++base;
    // Rack-aware placement puts the first copy on the writer (every client
    // is a datanode here), else on a hash-picked live node.
    const int first =
        is_live(writer) ? writer
                        : live[static_cast<std::size_t>(base % live.size())];
    if (ec_file) {
      // One block = one RS stripe: k data cells (zero-padded to equal
      // length) plus m parity cells, each on its own node.
      loc.ec_k = config_.ec.k;
      loc.ec_m = config_.ec.m;
      const int cells = config_.ec.cells();
      const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
      loc.cells.reserve(static_cast<std::size_t>(cells));
      std::vector<const std::uint8_t*> data_ptrs;
      for (int i = 0; i < loc.ec_k; ++i) {
        // The cell's share of the block, copied once into a buffer of
        // exactly cell_len bytes; only the stripe padding is zero-filled.
        auto cell = std::make_shared<std::vector<std::byte>>();
        cell->reserve(cell_len);
        const std::size_t begin =
            std::min(static_cast<std::size_t>(i) * cell_len, len);
        const auto share = block.subspan(begin, std::min(cell_len, len - begin));
        cell->assign(share.begin(), share.end());
        cell->resize(cell_len);
        data_ptrs.push_back(
            reinterpret_cast<const std::uint8_t*>(cell->data()));
        loc.cells.push_back(std::move(cell));
      }
      std::vector<std::uint8_t*> parity_ptrs;
      for (int j = 0; j < loc.ec_m; ++j) {
        auto cell = std::make_shared<std::vector<std::byte>>(cell_len);
        parity_ptrs.push_back(reinterpret_cast<std::uint8_t*>(cell->data()));
        loc.cells.push_back(std::move(cell));
      }
      codec->encode_into(data_ptrs, cell_len, parity_ptrs);
      // Placement: every cell on a distinct node. Rack-aware: first cell
      // writer-local (reads of healthy stripes start with a local cell),
      // the rest round-robin across the other racks so any single rack
      // loss costs at most a few cells per stripe. Flat: k+m consecutive
      // live nodes from the path hash.
      if (topo != nullptr) {
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
      parity_bytes += static_cast<std::uint64_t>(loc.ec_m) * cell_len;
      redundancy_net += static_cast<std::uint64_t>(cells - 1) * cell_len;
    } else {
      if (topo != nullptr) {
        // HDFS default policy: first replica on the writer, second
        // rack-local, third off-rack. Hash-pick within each candidate set so
        // the layout stays a deterministic function of the path; fall back
        // to any unused live node when a set is empty (single-rack
        // clusters, mostly-dead racks).
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
        loc.replicas.push_back(task);  // repl == 1 on the memory tier
      } else {
        for (int r = 0; r < repl; ++r) {
          loc.replicas.push_back(
              live[static_cast<std::size_t>(
                  (base + static_cast<std::uint64_t>(r)) % live.size())]);
        }
      }
      if (log != nullptr) {
        // The write pipeline: the writer streams to the first replica, which
        // forwards to the second, and so on. Without rack awareness the
        // first replica usually isn't the writer's node — that extra hop is
        // real network traffic the rack-aware policy exists to remove.
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
      loc.data = payload;
      if (tier == StorageTier::kMemory) memory_blocks.push_back(payload);
    }
    if (config_.verify_checksums) {
      // Write-path checksumming (HDFS computes block checksums client-side
      // on write): one CRC32C per replicated block, one per EC cell.
      const auto checksum = [&](const BlockData& bytes) {
        loc.crcs.push_back(crc32c(std::span<const std::byte>(*bytes)));
        checksummed_bytes += bytes->size();
      };
      if (ec_file) {
        for (const BlockData& cell : loc.cells) checksum(cell);
      } else {
        checksum(loc.data);
      }
      checksummed_cells += static_cast<std::int64_t>(loc.crcs.size());
    }
    if (hot_candidate) {
      full_blocks.push_back(payload);
      full_block_ids.push_back(loc.id);
    }
    locations.push_back(std::move(loc));
    offset += len;
  }

  const int home =
      locations.empty() ? task : locations.front().replicas.front();
  const std::uint64_t stripes = locations.size();
  namenode_.commit_file(path, std::move(locations), tier);

  if (hot_candidate) {
    hot_->admit(path, total, std::move(full_blocks), std::move(full_block_ids));
  }
  if (checksummed_cells > 0) checksums_.count_checksummed(checksummed_cells);

  if (charged) {
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
    charge(io, account);
    if (metrics_ != nullptr && ec_file && stripes > 0) {
      metrics_->increment("dfs_ec_stripes_written", stripes);
    }
  }

  if (notify && tier == StorageTier::kMemory) {
    // Fired outside every DFS lock; `account` already includes this write,
    // so the listener's production-IoStats snapshot is the full task cost.
    if (TierListener* listener = tier_listener_.load(std::memory_order_acquire)) {
      listener->on_commit(path, tier, total, home, memory_blocks, account);
    }
  }
}

void Dfs::spill_to_disk(const std::string& path, IoStats* account) {
  const std::string norm = normalize(path);
  MRI_REQUIRE(namenode_.file_tier(norm) == StorageTier::kMemory,
              "spill_to_disk(" << norm << "): file is not memory-tier");
  namenode_.set_file_tier(norm, StorageTier::kDisk);
  IoStats io;
  io.bytes_spilled = namenode_.file_size(norm);
  charge(io, account);
  if (metrics_ != nullptr) {
    metrics_->increment("dfs_files_spilled");
    metrics_->increment("dfs_bytes_spilled", io.bytes_spilled);
  }
}

void Dfs::restore_file(const std::string& path, std::vector<BlockData> blocks,
                       StorageTier tier) {
  const std::string norm = normalize(path);
  if (namenode_.exists(norm)) {
    // Drop the empty-replica skeleton (and any surviving replicas of a
    // partially lost file) without firing on_remove: the engine drives this
    // restore and keeps its lineage record alive.
    checksums_.forget(namenode_.remove(norm, false, nullptr));
  }
  commit(norm, std::move(blocks), /*account=*/nullptr, tier,
         /*charged=*/false, /*notify=*/false);
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

std::vector<StorageReconstructionEvent> Dfs::storage_events() const {
  std::lock_guard<std::mutex> lock(storage_mu_);
  return storage_events_;
}

HotCacheStats Dfs::hot_cache_stats() const {
  return hot_ != nullptr ? hot_->stats() : HotCacheStats{};
}

IntegrityStats Dfs::integrity_stats() const { return checksums_.stats(); }

}  // namespace mri::dfs

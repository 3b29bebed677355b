// Dfs failure path: node kills, injected read errors, silent corruption,
// checksum verification, repair and the background scrubber.
#include <algorithm>
#include <cstring>
#include <map>

#include "common/error.hpp"
#include "dfs/dfs.hpp"
#include "dfs/integrity/crc32c.hpp"
#include "dfs/path.hpp"
#include "net/flow_sim.hpp"

namespace mri::dfs {

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
  // The smallest-id live node not already holding a copy or cell of `loc`,
  // preferring one in `rack` (>= 0) when there is one; -1 when none.
  const auto pick_target = [this, topo](const BlockLocation& loc, int rack) {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    int fallback = -1;
    for (std::size_t i = 0; i < dead_.size(); ++i) {
      const int candidate = static_cast<int>(i);
      if (dead_[i] || std::find(loc.replicas.begin(), loc.replicas.end(),
                                candidate) != loc.replicas.end()) {
        continue;
      }
      if (rack < 0 || topo->rack_of(candidate) == rack) return candidate;
      if (fallback < 0) fallback = candidate;
    }
    return fallback;
  };
  // Erasure-coded reconstruction of stripe cell `cell`: decode it from the
  // first k surviving cells onto the smallest-id live node not already
  // holding a cell of the stripe (k-cell fan-in traffic + decode CPU,
  // priced below), replacing the replicated copy path.
  const auto reconstruct = [&](const BlockLocation& loc, int cell) -> int {
    const int target = pick_target(loc, -1);
    if (target < 0) return -1;  // nowhere to rebuild; stay degraded
    std::vector<char> surviving(loc.replicas.size());
    for (std::size_t slot = 0; slot < loc.replicas.size(); ++slot) {
      surviving[slot] = loc.replicas[slot] >= 0;
    }
    const StripeCells s =
        decode_cells(loc, surviving, {cell}, /*serve_marks=*/false);
    if (static_cast<int>(s.fetched.size()) < loc.ec_k) return -1;
    const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
    auto payload = std::make_shared<std::vector<std::byte>>(cell_len);
    std::memcpy(payload->data(), s.rebuilt.front().data(), cell_len);
    datanodes_[static_cast<std::size_t>(target)]->put(loc.id,
                                                      std::move(payload));
    for (int slot : s.fetched) {
      const int holder = loc.replicas[static_cast<std::size_t>(slot)];
      if (topo != nullptr) {
        repairs.push_back(net::Transfer{holder, target, cell_len,
                                        net::TransferKind::kRepair});
      }
      ec_fanin_bytes += cell_len;
    }
    return target;
  };
  const auto replicate = [&](const BlockLocation& loc, int cell) -> int {
    if (cell >= 0) return reconstruct(loc, cell);
    const auto source_it =
        std::find_if(loc.replicas.begin(), loc.replicas.end(),
                     [this](int r) { return !datanode_dead(r); });
    if (source_it == loc.replicas.end()) return -1;
    const int source = *source_it;
    const int target = pick_target(
        loc, topo != nullptr && topo->options().rack_aware_placement
                 ? topo->rack_of(source)
                 : -1);
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
  if (checksums_.clear_node(node) && hot_ != nullptr) {
    hot_->retain_poison(checksums_.marked_blocks());
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
  return static_cast<int>(std::count(dead_.begin(), dead_.end(), false));
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
  if (datanode_dead(node)) return;
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
      for (std::size_t slot = 0; slot < loc.replicas.size(); ++slot) {
        if (loc.replicas[slot] != node) continue;
        candidates.push_back(Candidate{
            loc.id, loc.cell_bytes(),
            loc.is_ec() ? static_cast<int>(slot) < loc.ec_k : slot == 0,
            file.path, index});
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
    // Deterministic per-victim bit pattern; | 1 keeps the salt nonzero. The
    // hash's basis is a digit short of FNV's; it stays, since every
    // corruption's bit pattern (and so every report) follows from it.
    const std::uint64_t hash =
        path_hash(pick->path, 1469598103934665603ull) ^
        static_cast<std::uint64_t>(pick->index) * 0x100000001b3ull;
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
  if (hot_ != nullptr) hot_->poison(pick->path, pick->id, eff_salt);
}

bool Dfs::verify_copy(const BlockLocation& loc, int node, int slot) const {
  BlockData data = datanodes_[static_cast<std::size_t>(node)]->get(loc.id);
  charge_verified(1, data->size(), nullptr);
  const auto expected = checksums_.expected(loc.id, slot < 0 ? 0 : slot);
  if (!expected) return false;  // committed before checksumming was enabled
  // Recompute the CRC over the bytes a read would actually serve: the
  // pristine payload, or its bit-flipped overlay when the copy is marked.
  if (auto mark = checksums_.corrupt_mark(loc.id, node)) {
    data = corrupt_copy(data, mark->salt);
  }
  return crc32c(std::span<const std::byte>(*data)) != *expected;
}

double Dfs::repair_corrupt_copy(const BlockLocation& loc,
                                const std::string& path, StorageTier tier,
                                int node, int slot, double at,
                                bool by_scrubber,
                                std::vector<net::Transfer>* flows) const {
  // The clear doubles as the claim: under racing readers exactly one caller
  // gets true, so every corruption is detected, repaired and counted once.
  if (!checksums_.clear_corrupt(loc.id, node)) return 0.0;
  double seconds = 0.0;
  const char* kind = "copy";
  std::uint64_t bytes = loc.length;
  IoStats io;
  if (tier == StorageTier::kMemory) {
    // Single-copy memory tier: no replica or parity to copy from — the
    // engine recomputes the partition from lineage. Without an engine the
    // repair is free in time (the pristine in-sim payload simply stops
    // being served corrupted).
    kind = "lineage";
    TierListener* listener = tier_listener_.load(std::memory_order_acquire);
    seconds = listener != nullptr ? listener->on_corrupt(path, at) : 0.0;
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
  charge(io, nullptr);
  if (flows != nullptr && racked_topology() && tier != StorageTier::kMemory) {
    // Repair traffic crosses the fabric from the first live healthy holder.
    const auto source =
        std::find_if(loc.replicas.begin(), loc.replicas.end(), [&](int h) {
          return h >= 0 && h != node && !datanode_dead(h);
        });
    if (source != loc.replicas.end()) {
      flows->push_back(
          net::Transfer{*source, node, bytes, net::TransferKind::kRepair});
    }
  }
  if (hot_ != nullptr) hot_->cure(path, loc.id);
  checksums_.record_repair(IntegrityRepairEvent{
      at, node, path, slot < 0 ? 0 : slot, bytes, kind, by_scrubber});
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
        if (holder < 0 || datanode_dead(holder)) continue;  // lost EC cell
        const std::uint64_t len = loc.cell_bytes();
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
  checksums_.record_scrub(
      ScrubPassEvent{at, pass_seconds, scanned, cells, repaired});
}

}  // namespace mri::dfs

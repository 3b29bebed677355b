#include "dfs/integrity/checksum_store.hpp"

#include <limits>
#include <memory>
#include <string_view>

#include "common/random.hpp"

namespace mri::dfs {

void ChecksumStore::record(BlockId block, std::vector<std::uint32_t> cell_crcs) {
  std::lock_guard<std::mutex> lock(mu_);
  crcs_[block] = std::move(cell_crcs);
}

void ChecksumStore::forget(BlockId block) {
  std::lock_guard<std::mutex> lock(mu_);
  crcs_.erase(block);
  auto it = marks_.lower_bound({block, std::numeric_limits<int>::min()});
  while (it != marks_.end() && it->first.first == block) it = marks_.erase(it);
}

std::optional<std::uint32_t> ChecksumStore::expected(BlockId block,
                                                     int cell) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = crcs_.find(block);
  if (it == crcs_.end()) return std::nullopt;
  if (cell < 0 || static_cast<std::size_t>(cell) >= it->second.size()) {
    return std::nullopt;
  }
  return it->second[static_cast<std::size_t>(cell)];
}

bool ChecksumStore::mark_corrupt(BlockId block, int node, std::uint64_t salt,
                                 double at) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool fresh =
      marks_.emplace(std::make_pair(block, node), CorruptMark{salt, at})
          .second;
  if (fresh) ++stats_.corruptions_injected;
  return fresh;
}

std::optional<CorruptMark> ChecksumStore::corrupt_mark(BlockId block,
                                                       int node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = marks_.find({block, node});
  if (it == marks_.end()) return std::nullopt;
  return it->second;
}

bool ChecksumStore::clear_corrupt(BlockId block, int node) {
  std::lock_guard<std::mutex> lock(mu_);
  return marks_.erase({block, node}) > 0;
}

bool ChecksumStore::clear_node(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  return std::erase_if(marks_, [node](const auto& m) {
           return m.first.second == node;
         }) > 0;
}

std::set<BlockId> ChecksumStore::marked_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<BlockId> blocks;
  for (const auto& [key, mark] : marks_) blocks.insert(key.first);
  return blocks;
}

void ChecksumStore::count_checksummed(std::int64_t cells) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.cells_checksummed += cells;
}

void ChecksumStore::count_verified(std::int64_t cells, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.cells_verified += cells;
  stats_.bytes_verified += bytes;
}

void ChecksumStore::record_repair(IntegrityRepairEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.corruptions_detected;
  ++stats_.cells_quarantined;
  const std::string_view kind = event.kind;
  ++(kind == "ec"        ? stats_.cells_repaired_ec
     : kind == "lineage" ? stats_.cells_repaired_lineage
                         : stats_.cells_repaired_copy);
  stats_.repairs.push_back(std::move(event));
}

void ChecksumStore::record_scrub(const ScrubPassEvent& pass) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.scrub_passes;
  stats_.scrub_bytes_scanned += pass.bytes_scanned;
  stats_.scrub_seconds += pass.seconds;
  stats_.scrubs.push_back(pass);
}

IntegrityStats ChecksumStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

BlockData corrupt_copy(const BlockData& data, std::uint64_t salt) {
  auto flipped = std::make_shared<std::vector<std::byte>>(*data);
  if (!flipped->empty()) {
    Xoshiro256 rng(salt);
    for (int i = 0; i < 8; ++i) {
      const auto pos =
          static_cast<std::size_t>(rng.next_below(flipped->size()));
      (*flipped)[pos] ^= std::byte{0x08};
    }
    // Positions can collide and cancel pairwise; force at least one flip.
    if (*flipped == *data) (*flipped)[0] ^= std::byte{0x08};
  }
  return flipped;
}

}  // namespace mri::dfs

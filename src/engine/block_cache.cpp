#include "engine/block_cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mri::engine {

BlockCache::BlockCache(int num_nodes, std::uint64_t capacity_per_node)
    : num_nodes_(num_nodes), capacity_per_node_(capacity_per_node) {
  MRI_REQUIRE(num_nodes >= 1, "block cache needs at least one node");
  node_bytes_.assign(static_cast<std::size_t>(num_nodes), 0);
}

void BlockCache::insert(const std::string& path, int node, std::uint64_t size,
                        std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(path);
  if (it != entries_.end()) {
    if (it->second.node >= 0) {
      node_bytes_[static_cast<std::size_t>(it->second.node)] -=
          it->second.size;
    }
    stats_.resident_bytes -= it->second.size;
    entries_.erase(it);
  }
  Entry e;
  e.node = (node >= 0 && node < num_nodes_) ? node : -1;
  e.size = size;
  e.epoch = epoch;
  entries_.emplace(path, e);
  if (e.node >= 0) node_bytes_[static_cast<std::size_t>(e.node)] += size;
  stats_.resident_bytes += size;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  ++stats_.insertions;
}

bool BlockCache::touch(const std::string& path, std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(path);
  if (it == entries_.end()) return false;
  it->second.epoch = std::max(it->second.epoch, epoch);
  ++stats_.hits;
  return true;
}

void BlockCache::erase(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(path);
  if (it == entries_.end()) return;
  if (it->second.node >= 0) {
    node_bytes_[static_cast<std::size_t>(it->second.node)] -= it->second.size;
  }
  stats_.resident_bytes -= it->second.size;
  entries_.erase(it);
}

bool BlockCache::resident(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(path) != 0;
}

std::uint64_t BlockCache::resident_bytes(int node) const {
  std::lock_guard<std::mutex> lock(mu_);
  MRI_REQUIRE(node >= 0 && node < num_nodes_, "resident_bytes: bad node");
  return node_bytes_[static_cast<std::size_t>(node)];
}

std::vector<BlockCache::Eviction> BlockCache::collect_evictions() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Eviction> out;
  if (capacity_per_node_ == 0) return out;
  for (int node = 0; node < num_nodes_; ++node) {
    const auto idx = static_cast<std::size_t>(node);
    if (node_bytes_[idx] <= capacity_per_node_) continue;
    // Victims in ascending (epoch, path): least-recent first, path as the
    // deterministic tie-break (entries_ already iterates in path order).
    std::vector<std::pair<std::uint64_t, std::string>> candidates;
    for (const auto& [path, e] : entries_) {
      if (e.node == node) candidates.emplace_back(e.epoch, path);
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [epoch, path] : candidates) {
      if (node_bytes_[idx] <= capacity_per_node_) break;
      auto it = entries_.find(path);
      out.push_back(Eviction{path, node, it->second.size});
      node_bytes_[idx] -= it->second.size;
      stats_.resident_bytes -= it->second.size;
      stats_.spilled_bytes += it->second.size;
      ++stats_.evictions;
      entries_.erase(it);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Eviction& a, const Eviction& b) { return a.path < b.path; });
  return out;
}

CacheStats BlockCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mri::engine

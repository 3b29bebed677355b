#include "dfs/hot_cache.hpp"

#include "dfs/integrity/checksum_store.hpp"
#include "dfs/path.hpp"

namespace mri::dfs {

HotCache::HotCache(std::uint64_t capacity_bytes, MetricsRegistry* metrics)
    : capacity_(capacity_bytes), metrics_(metrics) {}

bool HotCache::candidate(const std::string& path) {
  return basename(path).starts_with("ut");
}

void HotCache::admit(const std::string& path, std::uint64_t size,
                     std::vector<BlockData> blocks, std::vector<BlockId> ids) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path] = File{size, std::move(blocks), std::move(ids), {}, false};
  sweep();
}

void HotCache::forget(const std::vector<std::string>& paths) {
  std::lock_guard<std::mutex> lock(mu_);
  bool changed = false;
  for (const std::string& p : paths) changed = files_.erase(p) > 0 || changed;
  if (changed) sweep();
}

std::optional<HotCache::Hit> HotCache::serve(const std::string& path,
                                             bool verify) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end() || !it->second.resident) return std::nullopt;
  const File& file = it->second;
  if (verify && !file.poison.empty()) return std::nullopt;
  ++hits_;
  hit_bytes_ += file.size;
  if (metrics_ != nullptr) {
    metrics_->increment("dfs_hot_cache_hits");
    metrics_->increment("dfs_hot_cache_hit_bytes", file.size);
  }
  Hit hit{file.blocks, file.size};
  for (std::size_t i = 0; i < hit.blocks.size() && !file.poison.empty(); ++i) {
    auto p = file.poison.find(file.ids[i]);
    if (p != file.poison.end()) {
      hit.blocks[i] = corrupt_copy(hit.blocks[i], p->second);
    }
  }
  return hit;
}

void HotCache::poison(const std::string& path, BlockId block,
                      std::uint64_t salt) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it != files_.end()) it->second.poison[block] = salt;
}

void HotCache::cure(const std::string& path, BlockId block) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it != files_.end()) it->second.poison.erase(block);
}

void HotCache::retain_poison(const std::set<BlockId>& still_marked) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [path, file] : files_) {
    std::erase_if(file.poison, [&](const auto& p) {
      return still_marked.count(p.first) == 0;
    });
  }
}

void HotCache::sweep() {
  // Greedy admission over candidate paths in sorted (map) order: a pure
  // function of the candidate set, independent of commit interleaving — the
  // property that keeps same-seed runs bit-identical under task-thread
  // races. (Hot files are written and read in different phases, so the set
  // is stable by the time the hits matter.)
  std::uint64_t used = 0;
  for (auto& [path, file] : files_) {
    file.resident = used + file.size <= capacity_;
    if (file.resident) used += file.size;
  }
}

HotCacheStats HotCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  HotCacheStats s;
  s.capacity_bytes = capacity_;
  for (const auto& [path, file] : files_) {
    if (!file.resident) continue;
    s.resident_bytes += file.size;
    ++s.resident_files;
  }
  s.hits = hits_;
  s.hit_bytes = hit_bytes_;
  return s;
}

}  // namespace mri::dfs

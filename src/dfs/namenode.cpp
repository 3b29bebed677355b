#include "dfs/namenode.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"

namespace mri::dfs {

NameNode::NameNode() { entries_.emplace("/", Entry{}); }

const NameNode::Entry& NameNode::file(const std::string& path) const {
  auto it = entries_.find(path);
  if (it == entries_.end() || it->second.is_dir) {
    throw DfsError("no such file: " + path);
  }
  return it->second;
}

void NameNode::make_dirs(const std::string& path) {
  // Every ancestor of an entry exists, so only the missing tail is created
  // and a file anywhere on the way is found before anything is.
  if (auto it = entries_.find(path); it != entries_.end()) {
    if (!it->second.is_dir) {
      throw DfsError("cannot create directory over file: " + path);
    }
    return;
  }
  for (std::size_t end = path.find('/', 1);; end = path.find('/', end + 1)) {
    const auto it = entries_.try_emplace(path.substr(0, end)).first;
    if (!it->second.is_dir) {
      throw DfsError("cannot create directory over file: " + path);
    }
    if (end == std::string::npos) return;
  }
}

NameNode::Namespace::const_iterator NameNode::subtree_end(
    Namespace::const_iterator dir) const {
  std::string prefix = dir->first;
  if (prefix.back() != '/') prefix += '/';
  auto end = std::next(dir);
  while (end != entries_.end() && end->first.starts_with(prefix)) ++end;
  return end;
}

void NameNode::mkdirs(const std::string& path) {
  const std::string norm = normalize(path);
  std::lock_guard<std::mutex> lock(mu_);
  make_dirs(norm);
}

void NameNode::commit_file(const std::string& raw_path,
                           std::vector<BlockLocation> blocks,
                           StorageTier tier) {
  const std::string path = normalize(raw_path);
  MRI_REQUIRE(path != "/", "cannot create a file at the root path");
  Entry file{false, tier, 0, std::move(blocks)};
  for (const auto& b : file.blocks) file.size += b.length;
  std::lock_guard<std::mutex> lock(mu_);
  make_dirs(parent(path));
  auto [it, inserted] = entries_.try_emplace(path);
  if (!inserted) throw DfsError("path already exists: " + path);
  it->second = std::move(file);
}

StorageTier NameNode::file_tier(const std::string& path) const {
  const std::string norm = normalize(path);
  std::lock_guard<std::mutex> lock(mu_);
  return file(norm).tier;
}

void NameNode::set_file_tier(const std::string& path, StorageTier tier) {
  const std::string norm = normalize(path);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(norm);
  if (it == entries_.end() || it->second.is_dir) {
    throw DfsError("no such file: " + norm);
  }
  it->second.tier = tier;
}

bool NameNode::exists(const std::string& path) const {
  const std::string norm = normalize(path);
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(norm) > 0;
}

bool NameNode::is_directory(const std::string& path) const {
  const std::string norm = normalize(path);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(norm);
  return it != entries_.end() && it->second.is_dir;
}

bool NameNode::is_file(const std::string& path) const {
  const std::string norm = normalize(path);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(norm);
  return it != entries_.end() && !it->second.is_dir;
}

std::uint64_t NameNode::file_size(const std::string& path) const {
  const std::string norm = normalize(path);
  std::lock_guard<std::mutex> lock(mu_);
  return file(norm).size;
}

std::vector<BlockLocation> NameNode::file_blocks(const std::string& path) const {
  const std::string norm = normalize(path);
  std::lock_guard<std::mutex> lock(mu_);
  return file(norm).blocks;
}

NameNode::FileInfo NameNode::resolve(const std::string& path) const {
  std::string norm = normalize(path);
  std::lock_guard<std::mutex> lock(mu_);
  const Entry& entry = file(norm);
  return FileInfo{std::move(norm), entry.tier, entry.blocks};
}

std::vector<std::string> NameNode::list(const std::string& dir) const {
  const std::string norm = normalize(dir);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(norm);
  if (it == entries_.end() || !it->second.is_dir) {
    throw DfsError("no such directory: " + norm);
  }
  // Children are the subtree entries with no '/' past the directory's own
  // prefix; PathOrder keeps them in name order.
  const std::size_t skip = norm == "/" ? 1 : norm.size() + 1;
  std::vector<std::string> names;
  for (auto child = std::next(it), end = subtree_end(it); child != end;
       ++child) {
    if (child->first.find('/', skip) == std::string::npos) {
      names.push_back(child->first.substr(skip));
    }
  }
  return names;
}

std::vector<NameNode::FileInfo> NameNode::snapshot_files() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FileInfo> out;
  for (const auto& [path, entry] : entries_) {
    if (!entry.is_dir) out.push_back(FileInfo{path, entry.tier, entry.blocks});
  }
  return out;
}

std::vector<BlockLocation> NameNode::remove(
    const std::string& raw_path, bool recursive,
    std::vector<std::string>* removed_paths) {
  const std::string path = normalize(raw_path);
  MRI_REQUIRE(path != "/", "refusing to remove the DFS root");
  std::lock_guard<std::mutex> lock(mu_);
  const auto first = entries_.find(path);
  if (first == entries_.end()) throw DfsError("no such path: " + path);
  const auto last = subtree_end(first);
  if (!recursive && std::next(first) != last) {
    throw DfsError("directory not empty (pass recursive=true): " + path);
  }
  std::vector<BlockLocation> removed;
  for (auto it = first; it != last; ++it) {
    if (it->second.is_dir) continue;
    removed.insert(removed.end(),
                   std::make_move_iterator(it->second.blocks.begin()),
                   std::make_move_iterator(it->second.blocks.end()));
    if (removed_paths != nullptr) removed_paths->push_back(it->first);
  }
  entries_.erase(first, last);
  return removed;
}

std::size_t NameNode::file_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const auto& e) { return !e.second.is_dir; }));
}

BlockRepairSummary NameNode::repair_after_node_loss(
    int node, int target_replication,
    const std::function<PlacedCopy(const BlockLocation&, int cell)>&
        replicate) {
  MRI_REQUIRE(target_replication >= 1, "target replication must be >= 1");
  std::lock_guard<std::mutex> lock(mu_);
  BlockRepairSummary out;
  for (auto& [path, file] : entries_) {
    if (file.is_dir) continue;
    bool had_loss = false;
    for (BlockLocation& loc : file.blocks) {
      if (loc.is_ec()) {
        // Slot order is cell identity: mark this node's cells lost in place
        // instead of erasing them.
        int newly_lost = 0;
        for (std::size_t slot = 0; slot < loc.replicas.size(); ++slot) {
          if (loc.replicas[slot] == node) {
            loc.replicas[slot] = -1;
            loc.cells[slot] = nullptr;
            ++newly_lost;
          }
        }
        int live = 0;
        for (int holder : loc.replicas) live += holder >= 0 ? 1 : 0;
        if (live < loc.ec_k) {
          if (newly_lost > 0 && live + newly_lost >= loc.ec_k) {
            // Fewer than k survivors: the stripe is undecodable, gone for
            // good. Only the kill that crossed the threshold reports it.
            ++out.blocks_lost;
            had_loss = true;
          }
          continue;
        }
        // Rebuild every hole (including ones left by earlier kills that
        // found no eligible target) while the stripe is still decodable.
        for (std::size_t cell = 0; cell < loc.replicas.size(); ++cell) {
          if (loc.replicas[cell] >= 0) continue;
          PlacedCopy placed = replicate(loc, static_cast<int>(cell));
          if (placed.node < 0) continue;  // no eligible node; stay degraded
          loc.replicas[cell] = placed.node;
          loc.cells[cell] = std::move(placed.cell);
          ++out.ec_cells_reconstructed;
          out.ec_reconstructed_bytes += loc.cell_bytes();
        }
        continue;
      }
      auto it = std::find(loc.replicas.begin(), loc.replicas.end(), node);
      if (it == loc.replicas.end()) continue;
      loc.replicas.erase(it);
      if (loc.replicas.empty()) {
        // Last replica gone: keep the block registered so reads fail fast
        // with UnrecoverableBlock rather than "no such file".
        loc.data = nullptr;
        ++out.blocks_lost;
        had_loss = true;
        continue;
      }
      while (static_cast<int>(loc.replicas.size()) < target_replication) {
        const int placed = replicate(loc, -1).node;
        if (placed < 0) break;  // no eligible node left; stay under-replicated
        loc.replicas.push_back(placed);
        ++out.re_replicated_blocks;
        out.re_replicated_bytes += loc.length;
      }
    }
    if (had_loss) out.lost_files.push_back(path);
  }
  return out;
}

std::uint64_t NameNode::total_logical_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [path, entry] : entries_) total += entry.size;
  return total;
}

std::uint64_t NameNode::total_physical_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [path, entry] : entries_) {
    for (const BlockLocation& loc : entry.blocks) {
      const auto copies = std::count_if(loc.replicas.begin(),
                                        loc.replicas.end(),
                                        [](int holder) { return holder >= 0; });
      total += loc.cell_bytes() * static_cast<std::uint64_t>(copies);
    }
  }
  return total;
}

}  // namespace mri::dfs

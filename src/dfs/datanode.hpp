// A simulated datanode: a block store with usage accounting.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "dfs/block.hpp"

namespace mri::dfs {

class DataNode {
 public:
  explicit DataNode(int id) : id_(id) {}

  int id() const { return id_; }

  void put(BlockId block, BlockData data);
  BlockData get(BlockId block) const;
  void evict(BlockId block);

  /// Drops every block (the node died; its disks are gone).
  void clear();

  /// Bytes of replicas resident on this node.
  std::uint64_t bytes_stored() const;

 private:
  int id_;
  mutable std::mutex mu_;
  std::unordered_map<BlockId, BlockData> blocks_;
  std::uint64_t bytes_ = 0;
};

}  // namespace mri::dfs

#include "dfs/datanode.hpp"

#include "common/error.hpp"

namespace mri::dfs {

void DataNode::put(BlockId block, BlockData data) {
  MRI_CHECK(data != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = blocks_.emplace(block, std::move(data));
  MRI_CHECK_MSG(inserted, "block " << block << " already on datanode " << id_);
  bytes_ += it->second->size();
}

BlockData DataNode::get(BlockId block) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(block);
  MRI_CHECK_MSG(it != blocks_.end(),
                "block " << block << " missing from datanode " << id_);
  return it->second;
}

void DataNode::evict(BlockId block) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return;
  bytes_ -= it->second->size();
  blocks_.erase(it);
}

void DataNode::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  blocks_.clear();
  bytes_ = 0;
}

std::uint64_t DataNode::bytes_stored() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace mri::dfs

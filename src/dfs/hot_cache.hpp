// The namenode hot-block cache (DfsConfig::hot_cache_bytes): full-block
// copies of the repeatedly re-read transposed-U factors, kept namenode-side
// so a resident file is served without touching a datanode. A hit is
// charged like any remote read; what it buys is immunity to lost cells and
// replicas and to the degraded-decode path.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dfs/block.hpp"
#include "sim/layer_stats.hpp"
#include "sim/metrics.hpp"

namespace mri::dfs {

class HotCache {
 public:
  /// `metrics` (may be null) receives the hit counters.
  HotCache(std::uint64_t capacity_bytes, MetricsRegistry* metrics);

  /// True for the paths the cache considers: basenames starting with "ut",
  /// the transposed-U factors every later LU and inversion job re-reads.
  static bool candidate(const std::string& path);

  /// Registers (or replaces) a committed candidate's full-block payloads
  /// and re-runs the residency sweep.
  void admit(const std::string& path, std::uint64_t size,
             std::vector<BlockData> blocks, std::vector<BlockId> ids);

  /// Drops removed paths; re-runs the sweep when one was a candidate.
  void forget(const std::vector<std::string>& paths);

  /// What a hit serves: the cached payloads, bit-flipped where poisoned.
  struct Hit {
    std::vector<BlockData> blocks;
    std::uint64_t size = 0;
  };

  /// Serves a resident file and counts the hit, or returns nullopt. With
  /// `verify` a poisoned entry misses instead: the datanode path's
  /// read-repair then clears the poison, so the cache never out-serves
  /// verification.
  std::optional<Hit> serve(const std::string& path, bool verify);

  /// The cached copy of `block` mirrors a datanode replica, so it rots with
  /// it: served bit-flipped by `salt` until cure() or retain_poison().
  void poison(const std::string& path, BlockId block, std::uint64_t salt);
  void cure(const std::string& path, BlockId block);
  /// Keeps only the poison of blocks in `still_marked`.
  void retain_poison(const std::set<BlockId>& still_marked);

  HotCacheStats stats() const;

 private:
  struct File {
    std::uint64_t size = 0;
    std::vector<BlockData> blocks;  // full-block payloads, in file order
    std::vector<BlockId> ids;       // parallel to blocks
    std::map<BlockId, std::uint64_t> poison;  // block -> bit-rot salt
    bool resident = false;
  };

  /// Greedy residency sweep; call with mu_ held.
  void sweep();

  const std::uint64_t capacity_;
  MetricsRegistry* metrics_;
  mutable std::mutex mu_;
  std::map<std::string, File> files_;  // candidates, in sorted path order
  std::uint64_t hits_ = 0;
  std::uint64_t hit_bytes_ = 0;
};

}  // namespace mri::dfs

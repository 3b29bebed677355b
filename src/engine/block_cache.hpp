// Per-node block cache over the DFS memory tier.
//
// The SPIN-style engine keeps job outputs resident in the memory of the node
// that produced them. Each node has a fixed capacity; when a node is over
// budget at a job boundary the least-recently-used unpinned entries are
// evicted (spilled to that node's local disk by the engine, which owns the
// DFS call). Eviction decisions are taken ONLY at job boundaries — the
// engine's begin_job runs on the thread that places the graph's jobs, one
// job at a time — so the victim set is a deterministic function of the job
// sequence, never of task interleaving. Recency is an epoch (the job
// ordinal): every touch within one job writes the same epoch, so racy
// touches from concurrent tasks are order-confluent.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mri::engine {

struct CacheStats {
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Touches of resident entries (the consumer-side cache hits that make
  /// pipeline fusion between jobs possible).
  std::uint64_t hits = 0;
  std::uint64_t resident_bytes = 0;
  /// High-water mark of total resident bytes across all nodes. Mid-job
  /// overshoot is allowed (eviction only runs at job boundaries), so the
  /// peak can exceed nodes x capacity transiently.
  std::uint64_t peak_resident_bytes = 0;
  std::uint64_t spilled_bytes = 0;
};

class BlockCache {
 public:
  /// `capacity_per_node` = 0 means unlimited (no evictions).
  BlockCache(int num_nodes, std::uint64_t capacity_per_node);

  /// Registers a resident entry (replacing any previous entry at `path`).
  void insert(const std::string& path, int node, std::uint64_t size,
              std::uint64_t epoch);
  /// Bumps recency of a resident entry and counts a hit; no-op otherwise.
  /// Returns whether the entry was resident.
  bool touch(const std::string& path, std::uint64_t epoch);
  /// Drops an entry without counting an eviction (file removed / spilled by
  /// someone else). No-op when absent.
  void erase(const std::string& path);

  /// Pinned entries are never chosen for eviction.
  void pin(const std::string& path);
  void unpin(const std::string& path);

  bool resident(const std::string& path) const;
  std::uint64_t resident_bytes(int node) const;

  struct Eviction {
    std::string path;
    int node = -1;
    std::uint64_t size = 0;
  };

  /// LRU eviction pass: for every node over capacity, selects unpinned
  /// entries in ascending (epoch, path) order until the node fits, removes
  /// them from the cache and returns them (sorted by path) for the caller
  /// to spill. Deterministic; call only from the job-boundary hook.
  std::vector<Eviction> collect_evictions();

  CacheStats stats() const;

 private:
  struct Entry {
    int node = -1;
    std::uint64_t size = 0;
    std::uint64_t epoch = 0;
    bool pinned = false;
  };

  mutable std::mutex mu_;
  int num_nodes_;
  std::uint64_t capacity_per_node_;
  std::map<std::string, Entry> entries_;  // sorted: deterministic iteration
  std::vector<std::uint64_t> node_bytes_;
  CacheStats stats_;
};

}  // namespace mri::engine

// Per-task execution context handed to map() and reduce().
//
// The context is the task's only window on the world: DFS access with
// per-task I/O accounting, flop accounting for the cost model, emit() into
// the shuffle, and the task's coordinates (index, node, phase sizes) that
// the paper's workers use to decide their role.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dfs/dfs.hpp"
#include "mapreduce/types.hpp"
#include "net/topology.hpp"
#include "sim/io_stats.hpp"

namespace mri::mr {

class TaskContext {
 public:
  /// `input_path` is a map task's input file (empty for a reduce task).
  TaskContext(dfs::Dfs* fs, int task_index, int node, int num_map_tasks,
              int num_reduce_tasks, int cluster_size,
              std::string input_path = {})
      : fs_(fs),
        task_index_(task_index),
        node_(node),
        num_map_tasks_(num_map_tasks),
        num_reduce_tasks_(num_reduce_tasks),
        cluster_size_(cluster_size),
        input_path_(std::move(input_path)),
        transfer_log_(node) {}

  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

  dfs::Dfs& fs() { return *fs_; }
  const dfs::Dfs& fs() const { return *fs_; }

  /// Per-task accounting; pass &io() to DFS open/create calls.
  IoStats& io() { return io_; }
  const IoStats& io() const { return io_; }

  /// Records compute work (mults/adds) done by the task.
  void add_flops(const IoStats& flops) {
    io_.mults += flops.mults;
    io_.adds += flops.adds;
  }

  /// Emits a key/value pair into the shuffle (map phase only; the runtime
  /// ignores reduce-phase emissions into job output instead).
  void emit(std::int64_t key, std::string value) {
    emitted_.push_back(KeyValue{key, std::move(value)});
  }

  int task_index() const { return task_index_; }
  int node() const { return node_; }
  int num_map_tasks() const { return num_map_tasks_; }
  int num_reduce_tasks() const { return num_reduce_tasks_; }
  int cluster_size() const { return cluster_size_; }
  /// The file whose text map() received as its value (empty when reducing).
  const std::string& input_path() const { return input_path_; }

  const std::vector<KeyValue>& emitted() const { return emitted_; }
  std::vector<KeyValue> take_emitted() { return std::move(emitted_); }

  /// Network transfers this task's DFS traffic implied (recorded only while
  /// the filesystem has a racked topology; empty otherwise). The runtime
  /// moves these into the scheduler attempt so flows get charged through
  /// the network simulator. The context installs the log for its own
  /// lifetime, which is exactly the task body — tasks run wholly on one
  /// thread (a pool worker, or the caller when the runner has no pool).
  std::vector<net::Transfer> take_transfers() {
    return std::move(transfer_log_.log().transfers);
  }

 private:
  dfs::Dfs* fs_;
  int task_index_;
  int node_;
  int num_map_tasks_;
  int num_reduce_tasks_;
  int cluster_size_;
  std::string input_path_;
  IoStats io_;
  std::vector<KeyValue> emitted_;
  dfs::ScopedTransferLog transfer_log_;
};

}  // namespace mri::mr

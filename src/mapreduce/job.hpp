// Job specification and result types.
//
// A job mirrors Hadoop 1.x structure as the paper uses it:
//  * one map task per input file — the paper's control files
//    "Root/MapInput/A.j", each holding the integer j that tells the mapper
//    its role (§5.1);
//  * an optional reduce phase of num_reduce_tasks tasks fed by the shuffle;
//  * tasks read and write their real payload directly in the DFS.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/context.hpp"
#include "net/flow_sim.hpp"
#include "sim/io_stats.hpp"
#include "sim/layer_stats.hpp"
#include "sim/trace.hpp"

namespace mri::mr {

class Mapper {
 public:
  virtual ~Mapper() = default;
  /// `key` is the task index; `value` is the raw content of the input file.
  virtual void map(std::int64_t key, const std::string& value,
                   TaskContext& ctx) = 0;
};

class Reducer {
 public:
  virtual ~Reducer() = default;
  /// Called once per key owned by this reduce task, keys in ascending order.
  virtual void reduce(std::int64_t key, const std::vector<std::string>& values,
                      TaskContext& ctx) = 0;
};

struct JobSpec {
  std::string name = "job";
  /// One map task per input file.
  std::vector<std::string> input_files;
  std::function<std::unique_ptr<Mapper>()> mapper_factory;
  /// Null factory or num_reduce_tasks == 0 makes this a map-only job.
  std::function<std::unique_ptr<Reducer>()> reducer_factory;
  int num_reduce_tasks = 0;
  /// Maps a key to a reduce task index in [0, num_reduce_tasks); the shuffle
  /// validates the range. Default is floor_mod_partition (key mod
  /// num_reduce_tasks, non-negative even for negative keys).
  std::function<int(std::int64_t, int)> partitioner;
};

struct JobResult {
  std::string name;
  /// Simulated seconds including the job launch overhead.
  double sim_seconds = 0.0;
  double map_phase_seconds = 0.0;
  double reduce_phase_seconds = 0.0;
  IoStats io;
  int map_tasks = 0;
  int reduce_tasks = 0;
  /// Injected task failures that were recovered by re-execution.
  int failures_recovered = 0;
  /// Speculative backup attempts launched across both phases.
  int backups_run = 0;
  /// The backups' re-done reads and flops (included in io).
  IoStats speculation_io;
  /// Total shuffle traffic in bytes, split into node-local pairs (mapper and
  /// reducer share a node; never cross the network) and remote pairs (the
  /// only part charged to io.bytes_transferred).
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t shuffle_local_bytes = 0;
  std::uint64_t shuffle_remote_bytes = 0;
  /// Chaos node-loss recovery (all zero without a chaos engine):
  /// completed map tasks re-executed because their output died with a node,
  /// in-flight attempts killed by node outages, the wasted + re-done
  /// footprint (included in io), and the reduce-phase stall spent waiting
  /// for the recomputation waves.
  int tasks_recomputed = 0;
  int chaos_attempts_killed = 0;
  IoStats recovery_io;
  double recovery_seconds = 0.0;
  /// SPIN engine only: seconds this job waited for lineage recomputation of
  /// a prior kill to finish before its map phase could start (0 without an
  /// engine or when recovery completed earlier).
  double lineage_stall_seconds = 0.0;
  /// Per-attempt timelines from the scheduler (phase-relative seconds).
  std::vector<TaskTraceEvent> map_trace;
  std::vector<TaskTraceEvent> reduce_trace;
  /// Flow-level network accounting, filled only when a racked topology is
  /// attached to the cluster (empty/zero on flat runs). Link loads are
  /// indexed by Topology link id; recovery waves fold into the map phase.
  std::vector<net::LinkLoad> map_link_loads;
  std::vector<net::LinkLoad> reduce_link_loads;
  /// Recorded DFS/shuffle bytes by how far they travelled, and attempts by
  /// rack locality, summed over both phases.
  NetworkTotals net;
  /// Run-relative start of this job on its JobGraph's timeline (stamped by
  /// JobGraph::wait; 0 for a job run outside a graph).
  double start_seconds = 0.0;

  /// Run-relative start of the map phase. sim_seconds = launch + lineage
  /// stall + map + recovery stall + reduce, so the launch overhead (with
  /// any lineage stall) is the remainder. The one formula the trace, the
  /// spill lane and kill-time pickers share.
  double map_phase_start() const {
    return start_seconds +
           std::max(0.0, sim_seconds - map_phase_seconds - recovery_seconds -
                             reduce_phase_seconds);
  }
  /// Run-relative start of the reduce phase: after the map phase and the
  /// recovery waves it waited for.
  double reduce_phase_start() const {
    return map_phase_start() + map_phase_seconds + recovery_seconds;
  }
};

}  // namespace mri::mr

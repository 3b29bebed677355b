// Seeded, deterministic chaos engine: the fault schedule for a whole run.
//
// Section 7.4 of the paper is the fault-tolerance claim — a failed mapper
// stretched a 5-hour inversion to 8 hours, yet the run completed, which
// ScaLAPACK/MPI cannot do. The chaos engine generalizes the old one-shot
// task-level injector to whole-node faults on the simulated timeline:
//   * kKillNode      — a datanode/tasktracker dies at simulated time `at`:
//                      its DFS blocks are lost (the namenode re-replicates
//                      from survivors), its slots leave the pool, in-flight
//                      attempts fail, and completed map outputs that lived
//                      on it are re-executed (Hadoop node-loss semantics);
//   * kDegradeNode   — the node survives but slows down by `factor`
//                      (a straggler; speculation is the countermeasure);
//   * kBlockReadError — one read from the node fails; the DFS reader fails
//                      over to another replica (or surfaces a transient
//                      DfsError when there is none);
//   * kCorruptBlock  — a block copy on the node silently rots: reads of it
//                      *succeed* with wrong bytes. Undetectable unless DFS
//                      checksum verification is on, in which case the reader
//                      treats the mismatch like a failed replica and
//                      read-repairs the copy. Explicit events pick the
//                      node's largest block (matrix data, not metadata);
//                      background bit-rot (ChaosOptions::bitrot_rate) picks
//                      by the event's seeded salt.
//
// The schedule is fixed up front: explicit events via add_event() and/or
// MTBF-driven sampling from a seeded RNG via sample_faults(). Two engines
// built with the same options and events produce bit-identical runs — the
// acceptance bar for every chaos test and bench in this repo.
//
// Layering: mri_sim cannot see the DFS, so the engine applies node kills
// through a registered handler (Dfs::bind_chaos() installs one that runs
// the namenode repair and reports re-replication totals back). advance_to()
// is driver-thread only; the query side (kill_time, speed_factor,
// should_fail_task) is thread-safe for concurrent scheduler/task threads.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/io_stats.hpp"
#include "sim/layer_stats.hpp"

namespace mri {

enum class ChaosEventKind {
  kKillNode,
  kDegradeNode,
  kBlockReadError,
  kCorruptBlock
};

struct ChaosEvent {
  ChaosEventKind kind = ChaosEventKind::kKillNode;
  double at = 0.0;       // absolute simulated seconds
  int node = 0;
  double factor = 1.0;   // kDegradeNode: speed multiplier (< 1 = slower)
  /// kCorruptBlock: seeds the deterministic bit-flip pattern AND (when
  /// nonzero) the victim-block pick among the node's blocks; 0 means "pick
  /// the node's largest block" (explicit --corrupt-block events, which
  /// target matrix data rather than tiny metadata files).
  std::uint64_t salt = 0;
};

struct ChaosOptions {
  std::uint64_t seed = 0;
  /// Per-node mean time between failures for sample_faults(); 0 disables
  /// sampling (explicit events only). Sampling never picks node 0: it hosts
  /// the jobtracker/namenode, and killing it would end the run, not
  /// stretch it.
  double mtbf_seconds = 0.0;
  /// Faults are sampled in [0, horizon_seconds).
  double horizon_seconds = 0.0;
  /// Fraction of sampled faults that degrade the node to a quarter of its
  /// speed instead of killing it (a straggler, the §7.2 heterogeneity
  /// story, not a death).
  double degrade_fraction = 0.0;
  /// Background silent bit-rot rate for sample_bitrot(): expected
  /// kCorruptBlock events per node per simulated second. 0 disables
  /// sampling (explicit --corrupt-block events only).
  double bitrot_rate = 0.0;
};

/// A task-level failure rule, retained from the original FailureInjector:
/// kill attempt `attempt` of task `task_index` of the first job whose name
/// contains `job_name_substring`. One-shot: each rule fires once.
struct TaskFailureRule {
  std::string job_name_substring;
  int task_index = 0;
  int attempt = 0;
  bool map_task = true;
};

class ChaosEngine {
 public:
  ChaosEngine() = default;
  explicit ChaosEngine(ChaosOptions options);

  const ChaosOptions& options() const { return options_; }

  /// Adds one explicit fault to the schedule. kKillNode events are
  /// idempotent per node: only the earliest kill of a node takes effect.
  void add_event(ChaosEvent event);

  /// Samples MTBF-driven faults for nodes [0, num_nodes) from the seeded
  /// RNG; deterministic in (seed, num_nodes, options). Each node draws
  /// exponential inter-arrival times until the horizon; a fault degrades
  /// the node with probability degrade_fraction, otherwise kills it (and
  /// ends that node's stream). Requires mtbf_seconds > 0 and
  /// horizon_seconds > 0.
  void sample_faults(int num_nodes);

  /// Samples background silent-corruption events for nodes [0, num_nodes)
  /// with exponential inter-arrivals at bitrot_rate per node per second
  /// within the horizon; deterministic in (seed, num_nodes, options) and
  /// independent of sample_faults() (distinct per-node streams). Each event
  /// carries a nonzero salt that seeds both the victim pick and the flip
  /// pattern. Requires bitrot_rate > 0 and horizon_seconds > 0.
  void sample_bitrot(int num_nodes);

  /// Deterministically samples a kill time in [0, horizon) for an explicit
  /// --kill-node without a time; distinct per (seed, node).
  double sample_kill_time(int node) const;

  bool enabled() const;
  std::vector<ChaosEvent> events() const;  // sorted by (at, insertion)
  /// The kill and degrade events alone, in the same order: what the
  /// scheduler's view of the nodes needs, without the block events.
  std::vector<ChaosEvent> node_events() const;

  /// Absolute time the node dies; +infinity when it never does.
  double kill_time(int node) const;

  /// Chaos speed multiplier for work starting at absolute time `t` on
  /// `node` (product of all degrade events at or before `t`; 1.0 when
  /// none). Multiplies the cluster's static per-node speed factor.
  double speed_factor(int node, double t) const;

  /// Handler invoked when a kill event is applied at simulated time `at`
  /// (the DFS side: mark the datanode dead, re-replicate, report totals;
  /// the SPIN engine also needs `at` to stamp when recomputed partitions
  /// become readable again). Installed by Dfs::bind_chaos(); the Dfs must
  /// outlive the engine's last advance_to().
  using KillHandler = std::function<NodeKillOutcome(int node, double at)>;
  /// Handler for kBlockReadError events (arms one failing read on a node).
  using ReadErrorHandler = std::function<void(int node)>;
  /// Handler for kCorruptBlock events: silently corrupts one block copy on
  /// `node` at simulated time `at` with flip-pattern seed `salt` (0 = pick
  /// the node's largest block). Installed by Dfs::bind_chaos().
  using CorruptHandler =
      std::function<void(int node, double at, std::uint64_t salt)>;
  /// Invoked at the end of every advance_to(t) with the new simulated time,
  /// after due events are applied — the hook the DFS background scrubber
  /// hangs off so scrub passes land at job/phase boundaries on every
  /// driver (batch runtime and service loop alike).
  using ScrubHandler = std::function<void(double t)>;
  void set_kill_handler(KillHandler handler);
  void set_read_error_handler(ReadErrorHandler handler);
  void set_corrupt_handler(CorruptHandler handler);
  void set_scrub_handler(ScrubHandler handler);

  /// Applies every not-yet-applied event with at <= t in (time, insertion)
  /// order. Driver-thread only: called at job/phase boundaries (the end of
  /// JobRunner::finish) and on service clock advances, mirroring how the
  /// real computation runs eagerly while simulated consequences land at
  /// placement time. Events are applied exactly once; advance_to() never
  /// rewinds.
  void advance_to(double t);

  /// Service-level retry accounting (the service layer calls these).
  void note_request_retry();
  void note_request_unrecoverable();

  RecoveryStats stats() const;

  // -- task-level rules (FailureInjector compatibility surface) -----------
  void add_task_rule(TaskFailureRule rule);
  /// Drops pending rules AND resets the injected count (the old
  /// FailureInjector::clear() forgot the count; see the regression test).
  void clear_task_rules();
  /// True exactly once per matching (job, task, attempt).
  bool should_fail_task(const std::string& job_name, int task_index,
                        int attempt, bool map_task);
  std::uint64_t injected_task_count() const;

 private:
  struct Scheduled {
    ChaosEvent event;
    std::uint32_t seq = 0;  // insertion order, for the duplicate-kill rule
    bool applied = false;
  };

  /// Sorts the events appended to events_ past `old_size` into (time,
  /// insertion) order; call with mu_ held.
  void settle(std::size_t old_size);

  mutable std::mutex mu_;
  ChaosOptions options_;
  std::vector<Scheduled> events_;  // sorted by (at, insertion), as added
  std::uint32_t next_seq_ = 0;
  KillHandler kill_handler_;
  ReadErrorHandler read_error_handler_;
  CorruptHandler corrupt_handler_;
  ScrubHandler scrub_handler_;
  RecoveryStats stats_;
  std::vector<TaskFailureRule> task_rules_;
  std::uint64_t injected_tasks_ = 0;
};

}  // namespace mri

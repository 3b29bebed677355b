// Simulated-time scheduling of one task phase (map or reduce).
//
// The model reproduces Hadoop 1.x behaviour as the paper experienced it
// (§7.4): tasks are placed FIFO onto free slots; when a task attempt fails,
// its node is lost for the remainder of the phase (the paper's failed mapper
// took its slot down with it) and the re-execution is queued, starting only
// when the failure is detected AND a slot frees up — "this mapper did not
// restart until one of the other mappers finished".
//
// Real computation happens elsewhere (JobRunner executes tasks on a thread
// pool); the scheduler only turns per-attempt IoStats into a phase duration.
// Every attempt placement — including failed attempts and speculative
// backups — is recorded as a TaskTraceEvent for the run report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/flow_sim.hpp"
#include "sim/cluster.hpp"
#include "sim/io_stats.hpp"
#include "sim/layer_stats.hpp"
#include "sim/trace.hpp"

namespace mri::mr {

struct Attempt {
  IoStats io;
  bool failed = false;  // injected failure: attempt dies, retry follows
  /// Network transfers the attempt's DFS/shuffle traffic implies (recorded
  /// by the runtime under a racked topology; empty on flat runs). When the
  /// cluster carries a racked topology, the scheduler charges these through
  /// the flow simulator instead of the scalar network term.
  std::vector<net::Transfer> transfers;
};

/// One node death visible to a phase, in phase-relative seconds. `at <= 0`
/// means the node was already dead when the phase started: its slots never
/// join the pool. A mid-phase death kills the node's in-flight attempts at
/// `at`; their retries become ready at `at + detect_after` (§7.4: the
/// jobtracker only notices after the task timeout).
struct NodeOutage {
  int node = 0;
  double at = 0.0;
  double detect_after = 0.0;
};

/// The node slows down by `factor` for work starting at or after `at`
/// (phase-relative); a chaos straggler on top of the static speed variance.
struct NodeDegrade {
  int node = 0;
  double at = 0.0;
  double factor = 1.0;
};

/// The chaos engine's fault schedule projected onto one phase's clock;
/// built by JobRunner::finish() from the engine's absolute-time events.
struct PhaseChaos {
  std::vector<NodeOutage> outages;
  std::vector<NodeDegrade> degrades;
};

struct PhaseSchedule {
  double duration = 0.0;
  int attempts_run = 0;
  int nodes_lost = 0;
  /// Speculative backup attempts launched (0 unless the cost model enables
  /// speculative_execution).
  int backups_run = 0;
  /// Footprint of the speculative backups: re-read input and re-done flops.
  /// The losing copy's output is discarded before commit, so no writes.
  /// Callers must add this to the job's I/O totals.
  IoStats speculative_io;
  /// In-flight attempts killed by chaos node outages (distinct from the
  /// injected task failures counted in nodes_lost's legacy path).
  int chaos_attempts_killed = 0;
  /// Wasted footprint of chaos-killed attempts — the reads and flops the
  /// dead attempt had consumed (charged in full, like ghost attempts).
  /// Callers must add this to the job's I/O totals.
  IoStats chaos_io;
  /// Per-attempt timeline. Spans sharing a slot never overlap; losing
  /// speculative copies (and originals beaten by their backup) are truncated
  /// at the winner's finish, so max end == duration.
  std::vector<TaskTraceEvent> trace;
  /// Flow-level network accounting (racked topologies only; empty/zero
  /// otherwise). `link_loads` is indexed by Topology link id and comes from
  /// one global flow simulation of every recorded transfer at its attempt's
  /// start time.
  std::vector<net::LinkLoad> link_loads;
  /// Transfer bytes by distance and attempts by rack locality (a task's
  /// home node is task % cluster size).
  NetworkTotals net;
};

/// Schedules `attempts_per_task[t]` = the ordered attempts of task t (zero or
/// more failed attempts followed by exactly one successful one). `node_hint`
/// pins fresh attempts of task t near node (t % cluster size), matching the
/// paper's worker-j-reads-file-A.j placement; retries go wherever a slot is.
///
/// `slot_busy_until` (optional) gives, per global slot id, the phase-relative
/// time before which the slot is still busy with other jobs' tasks — the
/// lease a SlotPool hands out when concurrent jobs share the cluster. Null
/// (or all zeros) means the phase owns an idle cluster, which is exactly the
/// pre-JobGraph behaviour. An entry of SlotPool::kUnavailable (infinity)
/// withholds the slot from this phase entirely: a fair-share lease marks
/// other tenants' slots unavailable rather than merely busy.
///
/// `chaos` (optional) overlays the fault schedule: dead-on-arrival nodes
/// contribute no slots, mid-phase outages kill in-flight attempts (retried
/// after the outage's detection delay, on surviving nodes) and remove the
/// node's slots, and degrades slow a node's subsequent attempts. Throws
/// when every slot is dead or withheld.
///
/// When the cluster carries a racked topology (Cluster::set_topology), the
/// phase is costed with the flow-level network model instead of the scalar
/// per-node bandwidth: a first greedy pass places attempts with their
/// uncontended (standalone) flow times, one global max-min flow simulation
/// replays every recorded transfer at its attempt's start, and a second
/// greedy pass re-places with the contended flow times. Rack-aware
/// dispatch additionally prefers a slot in the task's home rack among
/// equally-free slots. A flat (or absent) topology takes the original
/// single-pass scalar path bit-identically.
PhaseSchedule schedule_phase(const Cluster& cluster,
                             const std::vector<std::vector<Attempt>>& attempts_per_task,
                             const std::vector<double>* slot_busy_until = nullptr,
                             const PhaseChaos* chaos = nullptr);

/// One tenant's weight in a fair-share SlotPool: slots are divided between
/// tenants proportionally to weight (largest remainder, every tenant gets at
/// least one slot).
struct TenantShare {
  std::string tenant;
  int weight = 1;
};

/// Cluster-wide slot arbiter for concurrent jobs: tracks, per global slot,
/// the absolute run time until which the slot is occupied. A phase scheduled
/// at absolute time T leases the cluster via offsets_at(T) (phase-relative
/// busy offsets for schedule_phase) and commits its placements back with
/// commit(trace, T), so the next eligible phase sees the slots it filled.
/// With strictly sequential phases every offset is 0 and the arbiter is
/// invisible — sequential runs reproduce the shared-nothing numbers exactly.
///
/// Fair sharing (the service layer's policy): set_shares() assigns every
/// slot a tenant owner by weight. A lease taken with a tenant id may use the
/// tenant's own slots plus — work-conserving redistribution — the slots of
/// tenants that currently have no work in the system (acquire()/release()
/// refcounts, maintained by the service as requests enter and leave); slots
/// of busy tenants come back as kUnavailable. Without shares, or with an
/// empty tenant id, every lease sees the whole pool first-come first-served.
class SlotPool {
 public:
  explicit SlotPool(int total_slots);

  /// Sentinel busy offset: the slot is not leasable by this phase at all.
  static double unavailable();

  int total_slots() const { return static_cast<int>(free_at_.size()); }

  /// Installs a weighted fair-share partition of the slots. Requires at
  /// least as many slots as tenants; replaces any previous shares. Resets
  /// activity refcounts.
  void set_shares(std::vector<TenantShare> shares);

  /// Marks a tenant as having work in the system (queued or running); its
  /// slots stop being borrowable. Calls nest.
  void acquire(const std::string& tenant);
  void release(const std::string& tenant);

  /// Slot ids owned by `tenant` under the current shares (empty when no
  /// shares are set).
  std::vector<int> slots_of(const std::string& tenant) const;

  /// Phase-relative busy offsets for a phase starting at `phase_start`
  /// (clamped at 0 for slots already free). The tenant-aware overload masks
  /// out slots the tenant may not use (see class comment); tenants must be
  /// registered via set_shares().
  std::vector<double> offsets_at(double phase_start) const;
  std::vector<double> offsets_at(double phase_start,
                                 const std::string& tenant) const;

  /// Folds a scheduled phase's per-attempt trace back into the pool.
  void commit(const std::vector<TaskTraceEvent>& events, double phase_start);

 private:
  int share_index(const std::string& tenant) const;  // -1 when absent

  std::vector<double> free_at_;  // absolute run seconds per global slot
  std::vector<TenantShare> shares_;
  std::vector<int> owner_;   // per-slot index into shares_; empty = no policy
  std::vector<int> active_;  // per-share count of requests in the system
};

}  // namespace mri::mr

// Scheduler unit tests: wave placement, dead-node slot loss, retry
// ready-times, speculation win/lose accounting, and the trace invariants
// the run report relies on (no slot overlap, monotone per-slot times,
// max event end == phase duration).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "mapreduce/scheduler.hpp"
#include "net/topology.hpp"

namespace mri::mr {
namespace {

CostModel flat_model(int slots_per_node = 1) {
  CostModel m;
  m.flops_per_second = 1e9;
  m.task_overhead_seconds = 0.0;
  m.failure_detection_seconds = 0.0;
  m.node_speed_variance = 0.0;
  m.slots_per_node = slots_per_node;
  return m;
}

Attempt ok_attempt(std::uint64_t flops) {
  Attempt a;
  a.io.mults = flops;
  return a;
}

Attempt failed_attempt(std::uint64_t flops) {
  Attempt a = ok_attempt(flops);
  a.failed = true;
  return a;
}

/// Events sharing a slot must be disjoint and in non-decreasing time order.
void expect_no_slot_overlap(const PhaseSchedule& s) {
  std::map<int, std::vector<TaskTraceEvent>> by_slot;
  for (const TaskTraceEvent& e : s.trace) {
    EXPECT_LE(e.start, e.end) << "negative-length span";
    by_slot[e.slot].push_back(e);
  }
  for (auto& [slot, events] : by_slot) {
    std::sort(events.begin(), events.end(),
              [](const TaskTraceEvent& a, const TaskTraceEvent& b) {
                return a.start < b.start;
              });
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_LE(events[i - 1].end, events[i].start + 1e-12)
          << "slot " << slot << " runs two attempts at once";
    }
  }
}

double max_trace_end(const PhaseSchedule& s) {
  double end = 0.0;
  for (const TaskTraceEvent& e : s.trace) end = std::max(end, e.end);
  return end;
}

// ---- waves -----------------------------------------------------------------

TEST(SchedulerTrace, TwoWavesFillBothSlots) {
  Cluster cluster(2, flat_model());
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(1'000'000'000)});
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  ASSERT_EQ(s.trace.size(), 4u);
  std::map<int, int> per_slot;
  for (const TaskTraceEvent& e : s.trace) ++per_slot[e.slot];
  ASSERT_EQ(per_slot.size(), 2u);  // both slots used
  for (const auto& [slot, n] : per_slot) EXPECT_EQ(n, 2);  // 2 waves each
  expect_no_slot_overlap(s);
  EXPECT_NEAR(max_trace_end(s), s.duration, 1e-12);
}

TEST(SchedulerTrace, EventsCarryTaskAndAttempt) {
  Cluster cluster(4, flat_model());
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(1'000'000'000)});
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  ASSERT_EQ(s.trace.size(), 4u);
  std::vector<bool> seen(4, false);
  for (const TaskTraceEvent& e : s.trace) {
    EXPECT_EQ(e.attempt, 0);
    EXPECT_FALSE(e.failed);
    EXPECT_FALSE(e.backup);
    ASSERT_GE(e.task, 0);
    ASSERT_LT(e.task, 4);
    seen[static_cast<std::size_t>(e.task)] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

// ---- dead nodes ------------------------------------------------------------

TEST(SchedulerDeadNode, FailureRemovesAllNodeSlots) {
  // 2 nodes x 2 slots. Task 0 dies at 0.5 s and takes node 0 down; the
  // node's *other* slot must stop receiving tasks too, so the remaining
  // 7 one-second attempts (6 fresh + 1 retry) share node 1's two slots:
  // the phase ends at 4.0 s, not at the 3.0 s a buggy half-dead node gives.
  Cluster cluster(2, flat_model(/*slots_per_node=*/2));
  std::vector<std::vector<Attempt>> tasks(8, {ok_attempt(1'000'000'000)});
  tasks[0] = {failed_attempt(500'000'000), ok_attempt(1'000'000'000)};
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  EXPECT_EQ(s.nodes_lost, 1);
  EXPECT_EQ(s.attempts_run, 9);
  EXPECT_NEAR(s.duration, 4.0, 1e-9);

  // The dead node serves nothing after the failure.
  double fail_time = 0.0;
  int dead_node = -1;
  for (const TaskTraceEvent& e : s.trace) {
    if (e.failed) {
      fail_time = e.end;
      dead_node = e.node;
    }
  }
  ASSERT_GE(dead_node, 0);
  for (const TaskTraceEvent& e : s.trace) {
    if (e.node == dead_node) {
      EXPECT_LE(e.start, fail_time)
          << "dead node " << dead_node << " received a task after dying";
    }
  }
  expect_no_slot_overlap(s);
  EXPECT_NEAR(max_trace_end(s), s.duration, 1e-12);
}

TEST(SchedulerDeadNode, AllNodesLostThrows) {
  Cluster cluster(1, flat_model(/*slots_per_node=*/2));
  std::vector<std::vector<Attempt>> tasks(1);
  tasks[0] = {failed_attempt(500'000'000), ok_attempt(1'000'000'000)};
  EXPECT_THROW(schedule_phase(cluster, tasks), Error);
}

// ---- retry ready-times -----------------------------------------------------

TEST(SchedulerRetry, WaitsForFailureDetection) {
  CostModel m = flat_model();
  m.failure_detection_seconds = 10.0;
  Cluster cluster(2, m);
  std::vector<std::vector<Attempt>> tasks(2);
  tasks[0] = {failed_attempt(500'000'000), ok_attempt(1'000'000'000)};
  tasks[1] = {ok_attempt(1'000'000'000)};
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  // Dies at 0.5, detected at 10.5 (slot on node 1 is free from 1.0), runs
  // 1 s: the retry's start is detection-bound, not slot-bound.
  const TaskTraceEvent* retry = nullptr;
  for (const TaskTraceEvent& e : s.trace) {
    if (e.task == 0 && e.attempt == 1) retry = &e;
  }
  ASSERT_NE(retry, nullptr);
  EXPECT_NEAR(retry->start, 10.5, 1e-9);
  EXPECT_NEAR(s.duration, 11.5, 1e-9);
  EXPECT_EQ(retry->node, 1);  // node 0 is dead
}

TEST(SchedulerRetry, SlotBoundWhenDetectionIsFast) {
  // With instant detection the retry still waits for a live slot (§7.4:
  // "did not restart until one of the other mappers finished").
  Cluster cluster(2, flat_model());
  std::vector<std::vector<Attempt>> tasks(2);
  tasks[0] = {failed_attempt(500'000'000), ok_attempt(1'000'000'000)};
  tasks[1] = {ok_attempt(1'000'000'000)};
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  EXPECT_NEAR(s.duration, 2.0, 1e-9);
}

// ---- speculation -----------------------------------------------------------

CostModel spec_model(bool speculation, double variance) {
  CostModel m = flat_model();
  m.node_speed_variance = variance;
  m.speculative_execution = speculation;
  m.speculative_threshold = 1.2;
  return m;
}

TEST(SchedulerSpeculation, WinningBackupChargedAndTruncatesOriginal) {
  // Seed 13 gives speeds {1.00, 0.69, 1.34, 1.56}: the 2-s task on node 1
  // straggles to 2.9 s; the idle 1.56x node backs it up and wins (~2.77 s).
  Cluster cluster(4, spec_model(true, 0.6), /*seed=*/13);
  std::vector<std::vector<Attempt>> tasks(3, {ok_attempt(2'000'000'000)});
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  ASSERT_GE(s.backups_run, 1);
  // The backup's re-done work is charged, reads and flops only.
  EXPECT_EQ(s.speculative_io.mults,
            static_cast<std::uint64_t>(s.backups_run) * 2'000'000'000u);
  EXPECT_EQ(s.speculative_io.bytes_written, 0u);

  const TaskTraceEvent* backup = nullptr;
  for (const TaskTraceEvent& e : s.trace) {
    if (e.backup) backup = &e;
  }
  ASSERT_NE(backup, nullptr);
  // The winner's end is the phase-effective completion; the beaten original
  // is killed (truncated) at the same moment, so nothing outlives duration.
  EXPECT_NEAR(max_trace_end(s), s.duration, 1e-12);
  expect_no_slot_overlap(s);
}

TEST(SchedulerSpeculation, LosingBackupStillChargedAndKilled) {
  // 10x the *work* (not a slow node): the backup cannot win, loses, and is
  // killed when the original finishes — but its I/O was still spent.
  Cluster cluster(4, spec_model(true, 0.0));
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(1'000'000'000)});
  tasks[3] = {ok_attempt(10'000'000'000)};
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  EXPECT_NEAR(s.duration, 10.0, 1e-9);  // speculation rescues nothing
  ASSERT_EQ(s.backups_run, 1);
  EXPECT_EQ(s.speculative_io.mults, 10'000'000'000u);
  const TaskTraceEvent* backup = nullptr;
  for (const TaskTraceEvent& e : s.trace) {
    if (e.backup) backup = &e;
  }
  ASSERT_NE(backup, nullptr);
  EXPECT_EQ(backup->task, 3);
  EXPECT_NEAR(backup->end, 10.0, 1e-9);  // killed at the original's finish
  EXPECT_NEAR(max_trace_end(s), s.duration, 1e-12);
  expect_no_slot_overlap(s);
}

TEST(SchedulerSpeculation, OffMeansNoBackupIo) {
  Cluster cluster(4, spec_model(false, 0.6), /*seed=*/13);
  std::vector<std::vector<Attempt>> tasks(3, {ok_attempt(2'000'000'000)});
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  EXPECT_EQ(s.backups_run, 0);
  EXPECT_EQ(s.speculative_io, IoStats{});
}

TEST(SchedulerSpeculation, DeadNodeSlotsNotUsedForBackups) {
  // One node dies; with speculation on, its idle slots must not host
  // backups. 2 nodes x 2 slots, node with the failure is dead.
  CostModel m = spec_model(true, 0.0);
  m.slots_per_node = 2;
  Cluster cluster(2, m);
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(1'000'000'000)});
  tasks[0] = {failed_attempt(500'000'000), ok_attempt(1'000'000'000)};
  tasks[3] = {ok_attempt(5'000'000'000)};  // straggler to tempt speculation
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  int dead_node = -1;
  double fail_time = 0.0;
  for (const TaskTraceEvent& e : s.trace) {
    if (e.failed) {
      dead_node = e.node;
      fail_time = e.end;
    }
  }
  ASSERT_GE(dead_node, 0);
  for (const TaskTraceEvent& e : s.trace) {
    if (e.backup) {
      EXPECT_NE(e.node, dead_node);
    }
    if (e.node == dead_node) {
      EXPECT_LE(e.start, fail_time);
    }
  }
  expect_no_slot_overlap(s);
}

// ---- racked topology / flow-level network model -----------------------------

std::shared_ptr<const net::Topology> make_topology(int hosts, int racks,
                                                   double oversub,
                                                   double bandwidth,
                                                   bool rack_aware = true) {
  net::TopologyOptions o;
  o.kind = net::TopologyKind::kRacked;
  o.racks = racks;
  o.oversubscription = oversub;
  o.rack_aware_placement = rack_aware;
  return std::make_shared<const net::Topology>(hosts, bandwidth, o);
}

TEST(SchedulerRacked, FlatTopologyIsIdenticalToNoTopology) {
  CostModel m = flat_model();
  m.network_bandwidth = 50e6;
  std::vector<std::vector<Attempt>> tasks(6, {ok_attempt(1'000'000'000)});
  tasks[2] = {failed_attempt(400'000'000), ok_attempt(1'000'000'000)};

  Cluster bare(4, m, /*seed=*/3);
  const PhaseSchedule a = schedule_phase(bare, tasks);

  Cluster with_flat(4, m, /*seed=*/3);
  with_flat.set_topology(
      std::make_shared<const net::Topology>(4, m.network_bandwidth));
  const PhaseSchedule b = schedule_phase(with_flat, tasks);

  EXPECT_EQ(a.duration, b.duration);  // bit-identical
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].start, b.trace[i].start);
    EXPECT_EQ(a.trace[i].end, b.trace[i].end);
    EXPECT_EQ(a.trace[i].node, b.trace[i].node);
    EXPECT_EQ(a.trace[i].slot, b.trace[i].slot);
  }
  EXPECT_TRUE(b.link_loads.empty());
  EXPECT_EQ(b.rack_local_attempts, 0);
}

TEST(SchedulerRacked, TransferlessAttemptsMatchScalarDurations) {
  // Attempts without recorded transfers cost exactly model.task_seconds even
  // under a racked topology: the racked path only changes how recorded
  // network traffic is charged.
  CostModel m = flat_model();
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(1'000'000'000)});

  Cluster bare(4, m, /*seed=*/3);
  const PhaseSchedule a = schedule_phase(bare, tasks);
  Cluster racked_cluster(4, m, /*seed=*/3);
  racked_cluster.set_topology(
      make_topology(4, 2, 4.0, m.network_bandwidth, /*rack_aware=*/false));
  const PhaseSchedule b = schedule_phase(racked_cluster, tasks);
  EXPECT_EQ(a.duration, b.duration);
}

TEST(SchedulerRacked, OversubscriptionStretchesCrossRackTransfers) {
  // One task per node, each reading 90 MB from a node in the other rack.
  // The scalar model charges 90 MB at network_bandwidth; under 9:1
  // oversubscription the rack uplink (2 * bw / 9) is the bottleneck and the
  // flow simulation must stretch the phase well past the scalar duration.
  CostModel m = flat_model();
  m.network_bandwidth = 100e6;
  m.disk_bandwidth = 100e6;
  const int n = 4;
  std::vector<std::vector<Attempt>> tasks;
  for (int t = 0; t < n; ++t) {
    Attempt a = ok_attempt(1'000'000);
    a.io.bytes_read = 90'000'000;
    a.io.bytes_transferred = 90'000'000;
    const int src = (t + 2) % n;  // other rack under 2 racks of 2
    a.transfers.push_back(
        {src, t, 90'000'000, net::TransferKind::kRead});
    tasks.push_back({a});
  }

  Cluster flat_cluster(n, m, /*seed=*/5);
  const PhaseSchedule flat = schedule_phase(flat_cluster, tasks);

  Cluster contended(n, m, /*seed=*/5);
  contended.set_topology(
      make_topology(n, 2, 9.0, m.network_bandwidth, /*rack_aware=*/false));
  const PhaseSchedule racked = schedule_phase(contended, tasks);

  EXPECT_GT(racked.duration, 1.3 * flat.duration);
  EXPECT_EQ(racked.cross_rack_attempts + racked.rack_local_attempts, n);
  EXPECT_EQ(racked.net_cross_rack_bytes, 4u * 90'000'000u);
  ASSERT_FALSE(racked.link_loads.empty());
  // Rack uplinks (ids 2H..2H+R) saw the traffic and hit saturation.
  const net::LinkLoad& up = racked.link_loads[2 * n];
  EXPECT_GT(up.bytes, 0u);
  EXPECT_NEAR(up.peak_utilization, 1.0, 1e-6);

  // A non-blocking fabric (1:1) matches the scalar time: access links run
  // at the same bandwidth the scalar model charges.
  Cluster clean(n, m, /*seed=*/5);
  clean.set_topology(
      make_topology(n, 2, 1.0, m.network_bandwidth, /*rack_aware=*/false));
  const PhaseSchedule smooth = schedule_phase(clean, tasks);
  EXPECT_NEAR(smooth.duration, flat.duration, 1e-6 * flat.duration);
}

TEST(SchedulerRacked, RackAwareDispatchPrefersHomeRack) {
  // 4 nodes, 2 racks, 1 slot each, 4 tasks: every task's home node (t % 4)
  // is free at t=0, so rack-aware dispatch should land every fresh attempt
  // in its home rack.
  CostModel m = flat_model();
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(1'000'000'000)});
  Cluster cluster(4, m, /*seed=*/7);
  cluster.set_topology(
      make_topology(4, 2, 4.0, m.network_bandwidth, /*rack_aware=*/true));
  const PhaseSchedule s = schedule_phase(cluster, tasks);
  EXPECT_EQ(s.rack_local_attempts, 4);
  EXPECT_EQ(s.cross_rack_attempts, 0);
  expect_no_slot_overlap(s);
}

TEST(SchedulerRacked, ByteDistanceSplitFollowsPlacement) {
  // A single task with one node-local and one same-rack transfer; dispatch
  // pins it to its home node (task 0 -> node 0, rack 0).
  CostModel m = flat_model();
  Attempt a = ok_attempt(1'000'000);
  a.io.bytes_read = 30'000'000;
  a.io.bytes_transferred = 10'000'000;
  a.transfers.push_back({0, 0, 20'000'000, net::TransferKind::kRead});
  a.transfers.push_back({1, 0, 10'000'000, net::TransferKind::kRead});
  Cluster cluster(4, m, /*seed=*/7);
  cluster.set_topology(make_topology(4, 2, 1.0, m.network_bandwidth));
  const PhaseSchedule s = schedule_phase(cluster, {{a}});
  EXPECT_EQ(s.net_node_local_bytes, 20'000'000u);
  EXPECT_EQ(s.net_rack_local_bytes, 10'000'000u);
  EXPECT_EQ(s.net_cross_rack_bytes, 0u);
}

TEST(SchedulerRacked, AttemptsWithTransfersPayChecksumCpu) {
  // Verification is never free: a racked attempt with recorded transfers
  // pays checksum_seconds for its bytes_checksummed, as the scalar model
  // charges it.
  CostModel m = flat_model();
  Attempt plain = ok_attempt(1'000'000);
  plain.io.bytes_read = 20'000'000;
  plain.transfers.push_back({0, 0, 20'000'000, net::TransferKind::kRead});
  Attempt verified = plain;
  verified.io.bytes_checksummed = 40'000'000;
  const auto duration = [&m](const Attempt& a) {
    Cluster cluster(4, m, /*seed=*/7);
    cluster.set_topology(make_topology(4, 2, 1.0, m.network_bandwidth));
    return schedule_phase(cluster, {{a}}).duration;
  };
  EXPECT_GT(m.checksum_seconds(40'000'000), 0.0);
  EXPECT_NEAR(duration(verified) - duration(plain),
              m.checksum_seconds(40'000'000), 1e-12);
}

// ---- fair-share slot pool ---------------------------------------------------

TEST(SlotPoolShares, LargestRemainderApportionment) {
  SlotPool pool(8);
  pool.set_shares({{"a", 3}, {"b", 1}});
  EXPECT_EQ(pool.slots_of("a").size(), 6u);
  EXPECT_EQ(pool.slots_of("b").size(), 2u);
  EXPECT_TRUE(pool.slots_of("nobody").empty());
}

TEST(SlotPoolShares, EveryTenantGetsAtLeastOneSlot) {
  SlotPool pool(4);
  pool.set_shares({{"whale", 100}, {"minnow", 1}});
  EXPECT_EQ(pool.slots_of("whale").size(), 3u);
  EXPECT_EQ(pool.slots_of("minnow").size(), 1u);
}

TEST(SlotPoolShares, ValidatesShares) {
  SlotPool pool(2);
  EXPECT_THROW(pool.set_shares({{"a", 1}, {"b", 1}, {"c", 1}}),
               InvalidArgument);  // more tenants than slots
  EXPECT_THROW(pool.set_shares({{"a", 0}}), InvalidArgument);
  EXPECT_THROW(pool.set_shares({{"", 1}}), InvalidArgument);
  EXPECT_THROW(pool.set_shares({{"a", 1}, {"a", 1}}), InvalidArgument);
}

TEST(SlotPoolShares, ActiveTenantsMaskEachOther) {
  SlotPool pool(4);
  pool.set_shares({{"a", 1}, {"b", 1}});
  pool.acquire("b");
  const std::vector<double> masked = pool.offsets_at(0.0, "a");
  const std::vector<int> a_slots = pool.slots_of("a");
  const std::vector<int> b_slots = pool.slots_of("b");
  for (int s : a_slots) EXPECT_EQ(masked[static_cast<std::size_t>(s)], 0.0);
  for (int s : b_slots) {
    EXPECT_EQ(masked[static_cast<std::size_t>(s)], SlotPool::unavailable());
  }
  // Work-conserving: once b leaves the system its slots are borrowable.
  pool.release("b");
  for (const double off : pool.offsets_at(0.0, "a")) EXPECT_EQ(off, 0.0);
}

TEST(SlotPoolShares, EmptyTenantSeesWholePool) {
  SlotPool pool(4);
  pool.set_shares({{"a", 1}, {"b", 1}});
  pool.acquire("a");
  pool.acquire("b");
  for (const double off : pool.offsets_at(0.0, "")) EXPECT_EQ(off, 0.0);
  EXPECT_THROW(pool.offsets_at(0.0, "stranger"), InvalidArgument);
  EXPECT_THROW(pool.acquire("stranger"), InvalidArgument);
}

TEST(SlotPoolShares, ScheduleSkipsUnavailableSlots) {
  // 2 nodes x 2 slots; mask node 1's two slots entirely. All four tasks
  // must run on node 0's two slots in two waves.
  Cluster cluster(2, flat_model(/*slots_per_node=*/2));
  std::vector<std::vector<Attempt>> tasks(4, {ok_attempt(1'000'000'000)});
  std::vector<double> busy(4, 0.0);
  busy[2] = busy[3] = SlotPool::unavailable();
  const PhaseSchedule s = schedule_phase(cluster, tasks, &busy);
  for (const TaskTraceEvent& e : s.trace) {
    EXPECT_EQ(e.node, 0);
    EXPECT_LT(e.slot, 2);
  }
  EXPECT_NEAR(s.duration, 2.0, 1e-9);
  expect_no_slot_overlap(s);
}

TEST(SlotPoolShares, AllSlotsUnavailableThrows) {
  Cluster cluster(1, flat_model(/*slots_per_node=*/2));
  std::vector<std::vector<Attempt>> tasks(1, {ok_attempt(1'000'000'000)});
  const std::vector<double> busy(2, SlotPool::unavailable());
  EXPECT_THROW(schedule_phase(cluster, tasks, &busy), InvalidArgument);
}

}  // namespace
}  // namespace mri::mr

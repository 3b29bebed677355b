#include "mapreduce/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "net/topology.hpp"

namespace mri::mr {

namespace {

struct TaskRecord {
  double end = 0.0;
  const IoStats* io = nullptr;  // the successful attempt's footprint
  int task = 0;
  int attempts = 0;     // attempts scheduled so far (next backup's index)
  int trace_index = -1; // successful attempt's event in PhaseSchedule::trace
};

struct IdleSlot {
  double free_time;
  int node;
  int id;
};

/// Hadoop-style speculation, applied after the primary schedule: straggler
/// tasks (projected past threshold x median completion) get backups on idle
/// slots; the earlier finisher wins and the loser is killed on the spot.
/// Each backup re-reads its input and re-does the flops, so its footprint is
/// charged to speculative_io (the discarded copy never commits its writes).
void speculate(const Cluster& cluster, std::vector<TaskRecord>* tasks,
               std::vector<IdleSlot> idle_slots, PhaseSchedule* out) {
  const CostModel& model = cluster.cost_model();
  if (tasks->size() < 2 || idle_slots.empty()) return;

  std::vector<double> ends;
  ends.reserve(tasks->size());
  double min_end = tasks->front().end;
  for (const TaskRecord& t : *tasks) {
    ends.push_back(t.end);
    min_end = std::min(min_end, t.end);
  }
  std::nth_element(ends.begin(), ends.begin() + ends.size() / 2, ends.end());
  const double median = ends[ends.size() / 2];
  // A task is a straggler when its projected completion exceeds
  // threshold x median; backups can launch once the first task has finished
  // (Hadoop speculates laggards as soon as a slot has nothing else to do).
  const double eligible = model.speculative_threshold * median;
  const double earliest_launch = min_end;

  // Worst stragglers first; earliest-free idle slots first.
  std::vector<TaskRecord*> stragglers;
  for (TaskRecord& t : *tasks) {
    if (t.end > eligible) stragglers.push_back(&t);
  }
  std::sort(stragglers.begin(), stragglers.end(),
            [](const TaskRecord* a, const TaskRecord* b) {
              return a->end > b->end;
            });
  std::sort(idle_slots.begin(), idle_slots.end(),
            [](const IdleSlot& a, const IdleSlot& b) {
              return std::tie(a.free_time, a.id) < std::tie(b.free_time, b.id);
            });

  std::size_t slot = 0;
  for (TaskRecord* t : stragglers) {
    if (slot >= idle_slots.size()) break;
    IdleSlot& s = idle_slots[slot];
    const double start = std::max(earliest_launch, s.free_time);
    if (start >= t->end) continue;  // backup could not beat the original
    const double backup_end =
        start + model.task_seconds(*t->io, cluster.speed_factor(s.node));
    ++out->backups_run;
    // The backup consumed real input reads and compute whether it wins or
    // loses; only the winning copy's (already-counted) output commits.
    out->speculative_io.bytes_read += t->io->bytes_read;
    out->speculative_io.bytes_transferred += t->io->bytes_transferred;
    out->speculative_io.bytes_read_memory += t->io->bytes_read_memory;
    out->speculative_io.mults += t->io->mults;
    out->speculative_io.adds += t->io->adds;

    TaskTraceEvent ev;
    ev.task = t->task;
    ev.attempt = t->attempts;
    ev.node = s.node;
    ev.slot = s.id;
    ev.start = start;
    ev.backup = true;
    if (backup_end < t->end) {
      // Backup wins: the original is killed the moment the backup finishes.
      ev.end = backup_end;
      if (t->trace_index >= 0) {
        out->trace[static_cast<std::size_t>(t->trace_index)].end = backup_end;
      }
      t->end = backup_end;
    } else {
      // Backup loses: it is killed when the original finishes.
      ev.end = t->end;
    }
    ++t->attempts;
    s.free_time = ev.end;
    out->trace.push_back(ev);
    ++slot;
  }

  // A finished phase does not wait for losing backups (they are killed), so
  // the new duration is the max of the per-task effective completions.
  out->duration = 0.0;
  for (const TaskRecord& t : *tasks) {
    out->duration = std::max(out->duration, t.end);
  }
}

}  // namespace

PhaseSchedule schedule_phase(
    const Cluster& cluster,
    const std::vector<std::vector<Attempt>>& attempts_per_task,
    const std::vector<double>* slot_busy_until, const PhaseChaos* chaos) {
  PhaseSchedule out;
  if (attempts_per_task.empty()) return out;

  struct Slot {
    double free_time;
    int node;
    int id;
    bool operator>(const Slot& other) const {
      return std::tie(free_time, node, id) >
             std::tie(other.free_time, other.node, other.id);
    }
  };
  const CostModel& model = cluster.cost_model();
  const int slots_per_node = model.slots_per_node;
  MRI_REQUIRE(slot_busy_until == nullptr ||
                  static_cast<int>(slot_busy_until->size()) >=
                      cluster.size() * slots_per_node,
              "slot_busy_until must cover every global slot");

  // Chaos overlay: per-node death time (phase-relative; infinity = never)
  // and detection delay, plus degrade onsets applied per placement below.
  const double never = std::numeric_limits<double>::infinity();
  std::vector<double> kill_at(static_cast<std::size_t>(cluster.size()), never);
  std::vector<double> detect_after(
      static_cast<std::size_t>(cluster.size()),
      cluster.cost_model().failure_detection_seconds);
  if (chaos != nullptr) {
    for (const NodeOutage& o : chaos->outages) {
      MRI_REQUIRE(o.node >= 0 && o.node < cluster.size(),
                  "chaos outage on unknown node " << o.node);
      auto n = static_cast<std::size_t>(o.node);
      if (o.at < kill_at[n]) {
        kill_at[n] = o.at;
        if (o.detect_after > 0.0) detect_after[n] = o.detect_after;
      }
    }
    for (const NodeDegrade& d : chaos->degrades) {
      MRI_REQUIRE(d.node >= 0 && d.node < cluster.size(),
                  "chaos degrade on unknown node " << d.node);
      MRI_REQUIRE(d.factor > 0.0, "chaos degrade factor must be > 0");
    }
  }
  const auto chaos_speed = [&](int node, double start) {
    double speed = cluster.speed_factor(node);
    if (chaos != nullptr) {
      for (const NodeDegrade& d : chaos->degrades) {
        if (d.node == node && d.at <= start) speed *= d.factor;
      }
    }
    return speed;
  };

  // -- flow-level network model (racked topologies only) -------------------
  const net::Topology* topo = cluster.topology().get();
  const bool racked = topo != nullptr && topo->racked() &&
                      topo->num_hosts() == cluster.size();
  const bool rack_aware = racked && topo->options().rack_aware_placement;

  // Decompose every attempt's recorded transfers once: local/remote byte
  // splits for the scalar leftovers, plus the attempt's flow set (coalesced
  // per endpoint pair) and its uncontended (standalone) makespan.
  struct AttemptNet {
    std::uint64_t local_read = 0;  // same-node kRead bytes
    std::uint64_t net_read = 0;    // cross-node kRead bytes
    std::uint64_t net_write = 0;   // cross-node kWrite/kRepair bytes
    std::vector<net::Flow> flows;  // coalesced by (src, dst), start = 0
    double standalone = 0.0;       // makespan of `flows` run alone
  };
  std::vector<std::vector<AttemptNet>> nets;
  bool any_flows = false;
  if (racked) {
    nets.resize(attempts_per_task.size());
    for (std::size_t t = 0; t < attempts_per_task.size(); ++t) {
      nets[t].resize(attempts_per_task[t].size());
      for (std::size_t d = 0; d < attempts_per_task[t].size(); ++d) {
        AttemptNet& n = nets[t][d];
        std::map<std::pair<int, int>, std::uint64_t> by_pair;
        for (const net::Transfer& tr : attempts_per_task[t][d].transfers) {
          if (tr.bytes == 0) continue;
          const bool crosses = tr.src >= 0 && tr.dst >= 0 && tr.src != tr.dst;
          switch (tr.kind) {
            case net::TransferKind::kRead:
              (crosses ? n.net_read : n.local_read) += tr.bytes;
              break;
            case net::TransferKind::kWrite:
            case net::TransferKind::kRepair:
              if (crosses) n.net_write += tr.bytes;
              break;
            case net::TransferKind::kShuffle:
              // Pure network time on top of the scalar terms (the scalar
              // model never charged shuffle fetches to the task).
              break;
          }
          if (crosses) by_pair[{tr.src, tr.dst}] += tr.bytes;
        }
        for (const auto& [pair, bytes] : by_pair) {
          n.flows.push_back(
              net::Flow{pair.first, pair.second, bytes, 0.0, -1});
        }
        if (!n.flows.empty()) {
          n.standalone = net::simulate_flows(*topo, n.flows).end_time;
          any_flows = true;
        }
      }
    }
  }

  // Racked duration of one attempt: the scalar cost with the network terms
  // carved out. Recorded transfers are charged as flows (`flow_seconds`);
  // bytes with no recorded endpoints — ghost attempts carry only reads, and
  // some master-side attribution lands on task IoStats — keep the scalar
  // network charge. Every other term comes from the CostModel's own list.
  // Attempts with no transfers at all cost exactly the scalar task_seconds.
  const auto racked_seconds = [&](const Attempt& a, const AttemptNet& n,
                                  double speed, double flow_seconds) {
    if (a.transfers.empty()) return model.task_seconds(a.io, speed);
    const std::uint64_t covered_read = n.local_read + n.net_read;
    const std::uint64_t leftover_read =
        a.io.bytes_read > covered_read ? a.io.bytes_read - covered_read : 0;
    const std::uint64_t leftover_repl =
        a.io.bytes_replicated > n.net_write
            ? a.io.bytes_replicated - n.net_write
            : 0;
    return model.accumulate_seconds(model.task_overhead_seconds, a.io, speed,
                                    n.local_read, leftover_read,
                                    leftover_repl) +
           flow_seconds;
  };

  // Contended flow seconds per (task, data_index), filled between passes.
  std::map<std::pair<int, int>, double> contended;

  struct Pending {
    int task;
    int data_index;  // which entry of attempts_per_task[task] to run
    int attempt;     // trace attempt number (chaos retries re-run the same
                     // data entry under a fresh attempt number)
    double ready_time;  // failure-detection time for retries, 0 for fresh
  };
  struct Placement {
    int task;
    int data_index;
    int node;
    double start;
  };
  struct PassState {
    PhaseSchedule sched;
    std::vector<TaskRecord> records;
    std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> slots;
    std::vector<bool> node_dead;
    std::vector<Placement> placements;  // racked only, in placement order
  };

  // One greedy FIFO pass over the phase — the original scalar loop,
  // parameterized by the duration model. Racked runs take it twice: first
  // with standalone flow times (to learn attempt starts), then with the
  // contended times from the global flow simulation.
  const auto run_pass = [&](bool use_contended) {
    PassState st;
    PhaseSchedule& o = st.sched;

    // Slots a fair-share lease withholds (busy offset of infinity) never
    // enter the heap — this phase schedules as if they did not exist — and
    // neither do slots of nodes that die before the slot would first free
    // up.
    std::vector<int> slots_on_node(static_cast<std::size_t>(cluster.size()),
                                   0);
    int live_slots = 0;
    for (int node = 0; node < cluster.size(); ++node) {
      for (int s = 0; s < slots_per_node; ++s) {
        const int id = node * slots_per_node + s;
        const double busy =
            slot_busy_until != nullptr
                ? (*slot_busy_until)[static_cast<std::size_t>(id)]
                : 0.0;
        if (std::isinf(busy)) continue;
        if (kill_at[static_cast<std::size_t>(node)] <= busy) continue;
        st.slots.push(Slot{busy, node, id});
        ++slots_on_node[static_cast<std::size_t>(node)];
        ++live_slots;
      }
    }
    MRI_REQUIRE(live_slots > 0,
                "no usable slots for this phase (every slot is withheld by "
                "the fair-share lease or its node is dead); give the tenant "
                "a share of the pool or keep at least one node alive");
    // A failed attempt takes its whole node down (§7.4), not just the slot
    // it ran on. Dead nodes' remaining slots stay in the heap and are
    // discarded lazily when popped.
    st.node_dead.assign(static_cast<std::size_t>(cluster.size()), false);
    const auto lose_node = [&](int node) {
      if (st.node_dead[static_cast<std::size_t>(node)]) return;
      st.node_dead[static_cast<std::size_t>(node)] = true;
      live_slots -= slots_on_node[static_cast<std::size_t>(node)];
      ++o.nodes_lost;
    };

    std::deque<Pending> queue;
    for (std::size_t t = 0; t < attempts_per_task.size(); ++t) {
      MRI_REQUIRE(!attempts_per_task[t].empty(),
                  "task " << t << " has no attempts");
      queue.push_back(Pending{static_cast<int>(t), 0, 0, 0.0});
    }

    st.records.assign(attempts_per_task.size(), TaskRecord{});

    while (!queue.empty()) {
      Pending p = queue.front();
      queue.pop_front();
      MRI_CHECK_MSG(live_slots > 0,
                    "all slots lost to failures; phase cannot finish");
      Slot slot;
      do {
        MRI_CHECK_MSG(!st.slots.empty(),
                      "all slots lost to failures; phase cannot finish");
        slot = st.slots.top();
        st.slots.pop();
      } while (st.node_dead[static_cast<std::size_t>(slot.node)]);

      // Rack-preferred dispatch: among live slots free at the same instant,
      // take one in the task's home rack when there is one. Fresh first
      // attempts only — retries go wherever a slot is, like the scalar
      // model.
      if (rack_aware && p.data_index == 0 && p.attempt == 0) {
        const int home_rack = topo->rack_of(p.task % cluster.size());
        if (topo->rack_of(slot.node) != home_rack) {
          std::vector<Slot> ties;
          while (!st.slots.empty()) {
            const Slot s = st.slots.top();
            if (st.node_dead[static_cast<std::size_t>(s.node)]) {
              st.slots.pop();
              continue;
            }
            if (s.free_time > slot.free_time) break;
            st.slots.pop();
            ties.push_back(s);
          }
          for (std::size_t i = 0; i < ties.size(); ++i) {
            if (topo->rack_of(ties[i].node) == home_rack) {
              std::swap(slot, ties[i]);
              break;
            }
          }
          for (const Slot& s : ties) st.slots.push(s);
        }
      }

      const double start = std::max(slot.free_time, p.ready_time);
      const double killed_at = kill_at[static_cast<std::size_t>(slot.node)];
      if (start >= killed_at) {
        // The node dies before this placement could begin: drop its slots
        // and place the attempt elsewhere.
        lose_node(slot.node);
        queue.push_front(p);
        continue;
      }

      const auto& attempt =
          attempts_per_task[static_cast<std::size_t>(p.task)]
                           [static_cast<std::size_t>(p.data_index)];
      double duration;
      if (racked) {
        const AttemptNet& n = nets[static_cast<std::size_t>(p.task)]
                                  [static_cast<std::size_t>(p.data_index)];
        double flow_seconds = n.standalone;
        if (use_contended) {
          const auto it = contended.find({p.task, p.data_index});
          if (it != contended.end()) flow_seconds = it->second;
        }
        duration = racked_seconds(attempt, n, chaos_speed(slot.node, start),
                                  flow_seconds);
      } else {
        duration =
            model.task_seconds(attempt.io, chaos_speed(slot.node, start));
      }
      double end = start + duration;
      // The node dies mid-attempt: the attempt is killed at the outage and
      // retried (same work) once the jobtracker notices, on a surviving
      // node.
      const bool chaos_killed = end > killed_at;
      if (chaos_killed) end = killed_at;
      o.duration = std::max(o.duration, end);
      ++o.attempts_run;
      if (racked) {
        st.placements.push_back(
            Placement{p.task, p.data_index, slot.node, start});
        const int home = p.task % cluster.size();
        if (topo->rack_of(slot.node) == topo->rack_of(home)) {
          ++o.net.rack_local_attempts;
        } else {
          ++o.net.cross_rack_attempts;
        }
      }

      TaskTraceEvent ev;
      ev.task = p.task;
      ev.attempt = p.attempt;
      ev.node = slot.node;
      ev.slot = slot.id;
      ev.start = start;
      ev.end = end;
      ev.failed = attempt.failed || chaos_killed;
      ev.chaos = chaos_killed;
      o.trace.push_back(ev);

      if (chaos_killed) {
        lose_node(slot.node);
        ++o.chaos_attempts_killed;
        // The dead attempt's reads and compute were spent for nothing;
        // charge them in full (the ghost-attempt convention — §7.4's worst
        // case).
        o.chaos_io.bytes_read += attempt.io.bytes_read;
        o.chaos_io.bytes_transferred += attempt.io.bytes_transferred;
        o.chaos_io.mults += attempt.io.mults;
        o.chaos_io.adds += attempt.io.adds;
        queue.push_back(Pending{
            p.task, p.data_index, p.attempt + 1,
            killed_at + detect_after[static_cast<std::size_t>(slot.node)]});
      } else if (attempt.failed) {
        // The node goes down with the attempt: every slot of the node is
        // lost for the rest of the phase. The jobtracker only notices after
        // the task timeout elapses (§7.4: the failed mapper "did not
        // restart until one of the other mappers finished").
        lose_node(slot.node);
        queue.push_back(Pending{p.task, p.data_index + 1, p.attempt + 1,
                                end + model.failure_detection_seconds});
      } else {
        st.slots.push(Slot{end, slot.node, slot.id});
        TaskRecord& rec = st.records[static_cast<std::size_t>(p.task)];
        rec.end = end;
        rec.io = &attempt.io;
        rec.task = p.task;
        rec.attempts = p.attempt + 1;
        rec.trace_index = static_cast<int>(o.trace.size()) - 1;
      }
    }
    return st;
  };

  PassState final_pass;
  if (racked && any_flows) {
    // Pass A learns where and when every attempt lands with uncontended
    // flow times; the global simulation then replays every attempt's flows
    // from its pass-A start to find the contended completion; pass B
    // re-places with those times. Chaos-retried attempts share one
    // (task, data_index) flow set — the first placement defines its start.
    const PassState first = run_pass(false);
    struct FlowSpan {
      std::pair<int, int> key;
      std::size_t first_flow;
      std::size_t count;
      double start;
    };
    std::vector<net::Flow> flows;
    std::vector<FlowSpan> spans;
    std::set<std::pair<int, int>> seen;
    for (const Placement& pl : first.placements) {
      const auto key = std::make_pair(pl.task, pl.data_index);
      if (!seen.insert(key).second) continue;
      const AttemptNet& n = nets[static_cast<std::size_t>(pl.task)]
                                [static_cast<std::size_t>(pl.data_index)];
      if (n.flows.empty()) continue;
      spans.push_back(FlowSpan{key, flows.size(), n.flows.size(), pl.start});
      for (const net::Flow& f : n.flows) {
        flows.push_back(net::Flow{f.src, f.dst, f.bytes, pl.start, -1});
      }
    }
    const net::FlowSimResult sim = net::simulate_flows(*topo, flows);
    for (const FlowSpan& s : spans) {
      double finish = s.start;
      for (std::size_t i = 0; i < s.count; ++i) {
        finish = std::max(finish, sim.finish[s.first_flow + i]);
      }
      contended[s.key] = finish - s.start;
    }
    final_pass = run_pass(true);
    final_pass.sched.link_loads = sim.links;
  } else {
    final_pass = run_pass(false);
  }

  auto& slots = final_pass.slots;
  auto& node_dead = final_pass.node_dead;
  std::vector<TaskRecord>& records = final_pass.records;
  out = std::move(final_pass.sched);

  if (racked) {
    // Byte-distance split of the recorded transfers, per final placement
    // (chaos retries re-count their re-done traffic, like the scalar I/O
    // accounting does).
    for (const Placement& pl : final_pass.placements) {
      const auto& transfers =
          attempts_per_task[static_cast<std::size_t>(pl.task)]
                           [static_cast<std::size_t>(pl.data_index)]
                               .transfers;
      for (const net::Transfer& tr : transfers) {
        if (tr.src < 0 || tr.dst < 0) continue;
        if (tr.src == tr.dst) {
          out.net.node_local_bytes += tr.bytes;
        } else if (topo->rack_of(tr.src) == topo->rack_of(tr.dst)) {
          out.net.rack_local_bytes += tr.bytes;
        } else {
          out.net.cross_rack_bytes += tr.bytes;
        }
      }
    }
  }

  if (model.speculative_execution) {
    std::vector<IdleSlot> idle;
    while (!slots.empty()) {
      const Slot s = slots.top();
      slots.pop();
      if (node_dead[static_cast<std::size_t>(s.node)]) continue;
      // Nodes scheduled to die never host backups: modeling a backup that
      // outlives its node would re-enter the retry machinery for work the
      // original completes anyway.
      if (kill_at[static_cast<std::size_t>(s.node)] < never) continue;
      idle.push_back(IdleSlot{s.free_time, s.node, s.id});
    }
    // Backups re-run the winner's footprint through the scalar model even
    // under a racked topology: a speculative copy's flows are not part of
    // the global simulation, so the scalar charge is the consistent bound.
    speculate(cluster, &records, std::move(idle), &out);
  }
  return out;
}

SlotPool::SlotPool(int total_slots) {
  MRI_REQUIRE(total_slots >= 1, "SlotPool needs at least one slot");
  free_at_.assign(static_cast<std::size_t>(total_slots), 0.0);
}

double SlotPool::unavailable() {
  return std::numeric_limits<double>::infinity();
}

void SlotPool::set_shares(std::vector<TenantShare> shares) {
  if (shares.empty()) {
    shares_.clear();
    owner_.clear();
    active_.clear();
    return;
  }
  MRI_REQUIRE(shares.size() <= free_at_.size(),
              "fair-share pool has " << free_at_.size() << " slots for "
                                     << shares.size()
                                     << " tenants; every tenant needs one");
  long long total_weight = 0;
  for (const TenantShare& s : shares) {
    MRI_REQUIRE(s.weight >= 1, "tenant '" << s.tenant
                                          << "' has non-positive weight "
                                          << s.weight);
    MRI_REQUIRE(!s.tenant.empty(), "fair-share tenants need non-empty names");
    total_weight += s.weight;
  }
  shares_ = std::move(shares);
  for (std::size_t i = 0; i < shares_.size(); ++i) {
    for (std::size_t j = i + 1; j < shares_.size(); ++j) {
      MRI_REQUIRE(shares_[i].tenant != shares_[j].tenant,
                  "duplicate fair-share tenant '" << shares_[i].tenant << "'");
    }
  }

  // Largest-remainder apportionment with a floor of one slot per tenant:
  // proportional to weight, deterministic, and exact (counts sum to the pool
  // size). Slot ids are handed out contiguously in share order.
  const int total = static_cast<int>(free_at_.size());
  const int n = static_cast<int>(shares_.size());
  std::vector<int> counts(static_cast<std::size_t>(n), 1);
  int assigned = n;
  std::vector<double> remainders(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const double ideal = static_cast<double>(total) *
                         static_cast<double>(shares_[static_cast<std::size_t>(i)].weight) /
                         static_cast<double>(total_weight);
    const int extra = std::max(0, static_cast<int>(ideal) - 1);
    counts[static_cast<std::size_t>(i)] += extra;
    assigned += extra;
    remainders[static_cast<std::size_t>(i)] =
        ideal - static_cast<double>(counts[static_cast<std::size_t>(i)]);
  }
  while (assigned < total) {
    int best = 0;
    for (int i = 1; i < n; ++i) {
      if (remainders[static_cast<std::size_t>(i)] >
          remainders[static_cast<std::size_t>(best)]) {
        best = i;
      }
    }
    ++counts[static_cast<std::size_t>(best)];
    remainders[static_cast<std::size_t>(best)] -= 1.0;
    ++assigned;
  }
  // Over-assignment can only come from the one-slot floors; take the excess
  // back from the largest allocations (never below the floor).
  while (assigned > total) {
    int best = 0;
    for (int i = 1; i < n; ++i) {
      if (counts[static_cast<std::size_t>(i)] >
          counts[static_cast<std::size_t>(best)]) {
        best = i;
      }
    }
    MRI_CHECK(counts[static_cast<std::size_t>(best)] > 1);
    --counts[static_cast<std::size_t>(best)];
    --assigned;
  }

  owner_.assign(free_at_.size(), 0);
  int slot = 0;
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < counts[static_cast<std::size_t>(i)]; ++c) {
      owner_[static_cast<std::size_t>(slot)] = i;
      ++slot;
    }
  }
  MRI_CHECK(slot == total);
  active_.assign(static_cast<std::size_t>(n), 0);
}

int SlotPool::share_index(const std::string& tenant) const {
  for (std::size_t i = 0; i < shares_.size(); ++i) {
    if (shares_[i].tenant == tenant) return static_cast<int>(i);
  }
  return -1;
}

void SlotPool::acquire(const std::string& tenant) {
  if (shares_.empty()) return;
  const int i = share_index(tenant);
  MRI_REQUIRE(i >= 0, "tenant '" << tenant
                                 << "' has no share in the SlotPool; add it "
                                    "to set_shares() before admitting work");
  ++active_[static_cast<std::size_t>(i)];
}

void SlotPool::release(const std::string& tenant) {
  if (shares_.empty()) return;
  const int i = share_index(tenant);
  MRI_REQUIRE(i >= 0, "tenant '" << tenant << "' has no share in the SlotPool");
  MRI_CHECK_MSG(active_[static_cast<std::size_t>(i)] > 0,
                "release() of tenant '" << tenant << "' without an acquire()");
  --active_[static_cast<std::size_t>(i)];
}

std::vector<int> SlotPool::slots_of(const std::string& tenant) const {
  std::vector<int> slots;
  const int i = share_index(tenant);
  if (i < 0) return slots;
  for (std::size_t s = 0; s < owner_.size(); ++s) {
    if (owner_[s] == i) slots.push_back(static_cast<int>(s));
  }
  return slots;
}

std::vector<double> SlotPool::offsets_at(double phase_start) const {
  std::vector<double> offsets(free_at_.size(), 0.0);
  for (std::size_t i = 0; i < free_at_.size(); ++i) {
    // A slot free before the phase starts contributes exactly 0.0, so a
    // sequential run's heap is bit-identical to the shared-nothing one.
    if (free_at_[i] > phase_start) offsets[i] = free_at_[i] - phase_start;
  }
  return offsets;
}

std::vector<double> SlotPool::offsets_at(double phase_start,
                                         const std::string& tenant) const {
  std::vector<double> offsets = offsets_at(phase_start);
  if (shares_.empty() || tenant.empty()) return offsets;
  const int i = share_index(tenant);
  MRI_REQUIRE(i >= 0, "tenant '" << tenant
                                 << "' has no share in the SlotPool; add it "
                                    "to set_shares() before leasing slots");
  for (std::size_t s = 0; s < offsets.size(); ++s) {
    const int owner = owner_[s];
    // Own slots are always leasable; another tenant's slots only while that
    // tenant has nothing in the system (work-conserving borrowing).
    if (owner != i && active_[static_cast<std::size_t>(owner)] > 0) {
      offsets[s] = unavailable();
    }
  }
  return offsets;
}

void SlotPool::commit(const std::vector<TaskTraceEvent>& events,
                      double phase_start) {
  for (const TaskTraceEvent& e : events) {
    MRI_CHECK_MSG(e.slot >= 0 && e.slot < static_cast<int>(free_at_.size()),
                  "trace event on unknown slot " << e.slot);
    double& free_at = free_at_[static_cast<std::size_t>(e.slot)];
    free_at = std::max(free_at, phase_start + e.end);
  }
}

}  // namespace mri::mr

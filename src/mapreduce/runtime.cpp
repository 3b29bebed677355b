#include "mapreduce/runtime.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/logging.hpp"
#include "engine/spin_engine.hpp"
#include "mapreduce/scheduler.hpp"
#include "mapreduce/shuffle.hpp"
#include "net/topology.hpp"

namespace mri::mr {

JobRunner::JobRunner(const Cluster* cluster, dfs::Dfs* fs, ThreadPool* pool,
                     FailureInjector* failures, MetricsRegistry* metrics,
                     ChaosEngine* chaos, engine::SpinEngine* engine)
    : cluster_(cluster), fs_(fs), pool_(pool), failures_(failures),
      metrics_(metrics), chaos_(chaos), engine_(engine) {
  MRI_REQUIRE(cluster != nullptr && fs != nullptr,
              "JobRunner needs a cluster and a DFS");
}

namespace {

/// Ghost attempts for every injected failure of (job, task): the attempt's
/// node dies near task completion (the §7.4 worst case), so charge the full
/// compute/read footprint but none of the (discarded) output writes. Rules
/// can come from the legacy injector or from the chaos engine's task rules.
std::vector<Attempt> attempts_for(FailureInjector* failures,
                                  ChaosEngine* chaos, const std::string& job,
                                  int task, bool map_task,
                                  const IoStats& success_io,
                                  std::vector<net::Transfer> transfers) {
  std::vector<Attempt> attempts;
  int a = 0;
  const auto injected = [&](int attempt) {
    return (failures != nullptr &&
            failures->should_fail(job, task, attempt, map_task)) ||
           (chaos != nullptr &&
            chaos->should_fail_task(job, task, attempt, map_task));
  };
  while (injected(a)) {
    Attempt ghost;
    ghost.io.bytes_read = success_io.bytes_read;
    ghost.io.mults = success_io.mults;
    ghost.io.adds = success_io.adds;
    ghost.failed = true;
    // A ghost died before committing: it consumed the reads but none of the
    // writes, so only the read transfers feed the flow model.
    for (const net::Transfer& t : transfers) {
      if (t.kind == net::TransferKind::kRead) ghost.transfers.push_back(t);
    }
    attempts.push_back(ghost);
    ++a;
  }
  Attempt success;
  success.io = success_io;
  success.transfers = std::move(transfers);
  attempts.push_back(std::move(success));
  return attempts;
}

/// Folds one phase's per-link loads into a job-level accumulator (bytes and
/// busy time add; peak utilization takes the max).
void merge_link_loads(std::vector<net::LinkLoad>* into,
                      const std::vector<net::LinkLoad>& from) {
  if (from.empty()) return;
  if (into->size() < from.size()) into->resize(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) {
    (*into)[i].bytes += from[i].bytes;
    (*into)[i].busy_seconds += from[i].busy_seconds;
    (*into)[i].peak_utilization =
        std::max((*into)[i].peak_utilization, from[i].peak_utilization);
  }
}

}  // namespace

JobResult JobRunner::run(const JobSpec& spec) {
  return finish(execute(spec));
}

ExecutedJob JobRunner::execute(const JobSpec& spec) {
  MRI_REQUIRE(!spec.input_files.empty(), "job '" << spec.name
                                                 << "' has no input files");
  MRI_REQUIRE(spec.mapper_factory != nullptr,
              "job '" << spec.name << "' has no mapper factory");
  const bool has_reduce =
      spec.reducer_factory != nullptr && spec.num_reduce_tasks > 0;

  ExecutedJob executed;
  JobResult& result = executed.result;
  result.name = spec.name;
  result.map_tasks = static_cast<int>(spec.input_files.size());
  result.reduce_tasks = has_reduce ? spec.num_reduce_tasks : 0;

  MRI_DEBUG() << "job " << spec.name << ": " << result.map_tasks << " maps, "
              << result.reduce_tasks << " reduces";

  // Engine job boundary BEFORE any task reads: the eviction pass may spill
  // memory-tier files to disk, and this job's opens must see the new tier.
  IoStats engine_spill;
  if (engine_ != nullptr) engine_spill = engine_->begin_job(spec.name);

  const auto run_tasks = [this](int count,
                                const std::function<void(std::size_t)>& fn) {
    if (pool_ != nullptr) {
      pool_->parallel_for(static_cast<std::size_t>(count), fn);
    } else {
      serial_for(static_cast<std::size_t>(count), fn);
    }
  };

  // ---- map phase (real execution) ----------------------------------------
  const int num_maps = result.map_tasks;
  std::vector<IoStats> map_io(static_cast<std::size_t>(num_maps));
  std::vector<std::vector<KeyValue>> map_outputs(
      static_cast<std::size_t>(num_maps));
  std::vector<std::vector<net::Transfer>> map_transfers(
      static_cast<std::size_t>(num_maps));

  try {
    run_tasks(num_maps, [&](std::size_t t) {
      const int task = static_cast<int>(t);
      TaskContext ctx(fs_, task, task % cluster_->size(), num_maps,
                      result.reduce_tasks, cluster_->size());
      const std::string input =
          fs_->read_text(spec.input_files[t], &ctx.io());
      auto mapper = spec.mapper_factory();
      MRI_CHECK_MSG(mapper != nullptr, "mapper factory returned null");
      mapper->map(task, input, ctx);
      map_io[t] = ctx.io();
      map_outputs[t] = ctx.take_emitted();
      map_transfers[t] = ctx.take_transfers();
    });
  } catch (const Error& e) {
    throw JobError("map phase of job '" + spec.name + "' failed: " + e.what());
  }

  // Spill cost rides the first map task's successful attempt so it lands on
  // the simulated timeline through the same memory_tier_seconds conversion
  // as every other memory-tier byte (satellite-1 consistency). Ghost
  // attempts never copy it (they only re-do reads and flops).
  if (num_maps > 0) map_io[0] += engine_spill;

  executed.map_attempts.reserve(static_cast<std::size_t>(num_maps));
  for (int t = 0; t < num_maps; ++t) {
    executed.map_attempts.push_back(
        attempts_for(failures_, chaos_, spec.name, t, true,
                     map_io[static_cast<std::size_t>(t)],
                     std::move(map_transfers[static_cast<std::size_t>(t)])));
  }
  for (const auto& task_attempts : executed.map_attempts) {
    for (const auto& attempt : task_attempts) {
      result.io += attempt.io;
      if (attempt.failed) ++result.failures_recovered;
    }
  }

  // ---- shuffle + reduce phase ---------------------------------------------
  if (has_reduce) {
    ShuffleResult shuffled =
        shuffle(std::move(map_outputs), spec.num_reduce_tasks,
                spec.partitioner, cluster_->size());
    result.shuffle_bytes = shuffled.total_bytes;
    result.shuffle_local_bytes = shuffled.local_bytes;
    result.shuffle_remote_bytes = shuffled.remote_bytes;
    // Node-local pairs never cross the network in Hadoop; only the remote
    // part is network traffic in the paper's Table 1/2 sense.
    result.io.bytes_transferred += shuffled.remote_bytes;

    const int num_reduces = spec.num_reduce_tasks;
    std::vector<IoStats> reduce_io(static_cast<std::size_t>(num_reduces));
    std::vector<std::vector<net::Transfer>> reduce_transfers(
        static_cast<std::size_t>(num_reduces));
    try {
      run_tasks(num_reduces, [&](std::size_t r) {
        const int task = static_cast<int>(r);
        TaskContext ctx(fs_, task, task % cluster_->size(), num_maps,
                        num_reduces, cluster_->size());
        auto reducer = spec.reducer_factory();
        MRI_CHECK_MSG(reducer != nullptr, "reducer factory returned null");
        for (const auto& [key, values] : shuffled.partitions[r]) {
          reducer->reduce(key, values, ctx);
        }
        reduce_io[r] = ctx.io();
        reduce_transfers[r] = ctx.take_transfers();
      });
    } catch (const Error& e) {
      throw JobError("reduce phase of job '" + spec.name +
                     "' failed: " + e.what());
    }

    // Under a racked topology each reducer's shuffle fetches become network
    // flows: one transfer per remote map node it pulls partitions from.
    // (Node-local fetches read from local disk and stay off the network,
    // matching the scalar local/remote split above.)
    {
      const net::Topology* topo = cluster_->topology().get();
      if (topo != nullptr && topo->racked() &&
          topo->num_hosts() == cluster_->size()) {
        for (int r = 0; r < num_reduces; ++r) {
          const int reduce_node = r % cluster_->size();
          for (const auto& [map_node, bytes] :
               shuffled.fetch_sources[static_cast<std::size_t>(r)]) {
            if (map_node == reduce_node || map_node < 0 || bytes == 0) {
              continue;
            }
            reduce_transfers[static_cast<std::size_t>(r)].push_back(
                net::Transfer{map_node, reduce_node, bytes,
                              net::TransferKind::kShuffle});
          }
        }
      }
    }

    executed.reduce_attempts.reserve(static_cast<std::size_t>(num_reduces));
    for (int r = 0; r < num_reduces; ++r) {
      executed.reduce_attempts.push_back(attempts_for(
          failures_, chaos_, spec.name, r, false,
          reduce_io[static_cast<std::size_t>(r)],
          std::move(reduce_transfers[static_cast<std::size_t>(r)])));
    }
    for (const auto& task_attempts : executed.reduce_attempts) {
      for (const auto& attempt : task_attempts) {
        result.io += attempt.io;
        if (attempt.failed) ++result.failures_recovered;
      }
    }
  }
  return executed;
}

JobResult JobRunner::finish(ExecutedJob executed, SlotPool* pool,
                            double start_seconds, const std::string& tenant) {
  // The pool may be shared across many requests while the cluster it was
  // sized for changes between them; trusting the constructor-time snapshot
  // would silently lease slots that no longer exist (or miss new ones).
  MRI_REQUIRE(pool == nullptr || pool->total_slots() == cluster_->total_slots(),
              "SlotPool tracks " << pool->total_slots()
                                 << " slots but the cluster now has "
                                 << cluster_->total_slots() << " ("
                                 << cluster_->size() << " nodes x "
                                 << cluster_->cost_model().slots_per_node
                                 << " slots/node); recreate the SlotPool (and "
                                    "any JobGraph built on it) whenever the "
                                    "cluster is resized");
  JobResult result = std::move(executed.result);
  result.start_seconds = start_seconds;
  const CostModel& model = cluster_->cost_model();
  const double launch = model.job_launch_seconds;
  const bool has_chaos = chaos_ != nullptr && chaos_->enabled();

  // The chaos engine speaks absolute run seconds; each phase wants its own
  // clock. Events on nodes outside this cluster are ignored.
  const auto chaos_view = [&](double phase_start) {
    PhaseChaos view;
    for (const ChaosEvent& e : chaos_->events()) {
      if (e.node >= cluster_->size()) continue;
      if (e.kind == ChaosEventKind::kKillNode) {
        view.outages.push_back(NodeOutage{e.node, e.at - phase_start, 0.0});
      } else if (e.kind == ChaosEventKind::kDegradeNode) {
        view.degrades.push_back(
            NodeDegrade{e.node, e.at - phase_start, e.factor});
      }
    }
    return view;
  };
  const auto schedule = [&](const std::vector<std::vector<Attempt>>& attempts,
                            double phase_start, bool commit_to_pool) {
    PhaseChaos view;
    if (has_chaos) view = chaos_view(phase_start);
    PhaseSchedule s;
    if (pool != nullptr) {
      const std::vector<double> busy = pool->offsets_at(phase_start, tenant);
      s = schedule_phase(*cluster_, attempts, &busy,
                         has_chaos ? &view : nullptr);
      if (commit_to_pool) pool->commit(s.trace, phase_start);
    } else {
      s = schedule_phase(*cluster_, attempts, nullptr,
                         has_chaos ? &view : nullptr);
    }
    return s;
  };
  const auto charge_phase = [&result](const PhaseSchedule& s) {
    // Speculative backups and chaos-killed attempts re-read and re-compute
    // (or wasted reads and compute) for real; charge them.
    result.io += s.speculative_io;
    result.speculation_io += s.speculative_io;
    result.backups_run += s.backups_run;
    result.io += s.chaos_io;
    result.recovery_io += s.chaos_io;
    result.chaos_attempts_killed += s.chaos_attempts_killed;
    result.net += s.net;  // flow-level network totals (zero on flat runs)
  };

  // The map phase starts once the job is launched; the reduce phase once the
  // last map attempt finished. Each phase leases the pool at its own start
  // so it sees exactly the slots concurrent jobs still occupy then.
  double map_start = start_seconds + launch;
  if (engine_ != nullptr) {
    // Lineage recovery from an earlier kill occupies the surviving slots;
    // a job launched before it completes waits for its inputs to be
    // rebuilt (the SPIN analogue of the reduce-phase recovery stall).
    const double available = engine_->recovery_available_at();
    if (available > map_start) {
      result.lineage_stall_seconds = available - map_start;
      map_start = available;
    }
  }
  PhaseSchedule map_phase = schedule(executed.map_attempts, map_start, true);
  result.map_phase_seconds = map_phase.duration;
  charge_phase(map_phase);
  merge_link_loads(&result.map_link_loads, map_phase.link_loads);
  result.map_trace = std::move(map_phase.trace);

  if (!executed.reduce_attempts.empty()) {
    double reduce_start = map_start + result.map_phase_seconds;

    // Hadoop node-loss semantics: a completed map task's output lives on
    // its tasktracker's local disk, so a node death before the reduce
    // phase has consumed it forces the map task to re-execute. Model:
    // every kill inside the job's map..reduce window whose node hosted
    // completed map attempts triggers a recovery wave (the lost tasks
    // re-scheduled on survivors once the failure is detected); the reduce
    // phase starts only after the last wave. Waves can cascade — a later
    // kill can take out a wave's own outputs — so iterate to a fixpoint
    // (each kill is processed at most once; the loop terminates). Without
    // a kill the loop schedules the reduce phase once.
    std::vector<ChaosEvent> kills;
    if (has_chaos) {
      for (const ChaosEvent& e : chaos_->events()) {
        if (e.kind == ChaosEventKind::kKillNode && e.node < cluster_->size()) {
          kills.push_back(e);
        }
      }
    }
    struct OutputCopy {
      int task;
      int node;
    };
    std::vector<OutputCopy> outputs;
    std::vector<int> next_attempt(static_cast<std::size_t>(result.map_tasks),
                                  0);
    for (const TaskTraceEvent& ev : result.map_trace) {
      if (!ev.failed) outputs.push_back(OutputCopy{ev.task, ev.node});
      auto& next = next_attempt[static_cast<std::size_t>(ev.task)];
      next = std::max(next, ev.attempt + 1);
    }

    std::vector<bool> kill_done(kills.size(), false);
    PhaseSchedule reduce_phase;
    while (true) {
      reduce_phase = schedule(executed.reduce_attempts, reduce_start, false);
      const double reduce_end = reduce_start + reduce_phase.duration;
      bool rescheduled = false;
      for (std::size_t k = 0; k < kills.size(); ++k) {
        if (kill_done[k] || kills[k].at >= reduce_end) continue;
        kill_done[k] = true;
        // Map tasks with a completed attempt on the dead node lose that
        // output (every copy on the node finished before the kill — the
        // scheduler truncates in-flight attempts at the outage).
        std::vector<int> lost;
        for (const OutputCopy& c : outputs) {
          if (c.node == kills[k].node) lost.push_back(c.task);
        }
        std::sort(lost.begin(), lost.end());
        lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
        if (lost.empty()) continue;

        std::vector<std::vector<Attempt>> wave;
        wave.reserve(lost.size());
        for (const int t : lost) {
          // The re-execution re-does the whole attempt, transfers included
          // (endpoints stay as originally recorded — a fair approximation
          // of re-reading the same replicas).
          wave.push_back(
              {executed.map_attempts[static_cast<std::size_t>(t)].back()});
        }
        const double wave_start = kills[k].at + model.failure_detection_seconds;
        PhaseSchedule wave_phase = schedule(wave, wave_start, true);
        charge_phase(wave_phase);
        merge_link_loads(&result.map_link_loads, wave_phase.link_loads);
        std::vector<int> wave_attempts(lost.size(), 0);
        for (const TaskTraceEvent& ev : wave_phase.trace) {
          const int task = lost[static_cast<std::size_t>(ev.task)];
          TaskTraceEvent rec = ev;
          rec.task = task;
          rec.attempt =
              next_attempt[static_cast<std::size_t>(task)] + ev.attempt;
          rec.recovery = true;
          rec.start += wave_start - map_start;
          rec.end += wave_start - map_start;
          result.map_trace.push_back(rec);
          if (!ev.failed) outputs.push_back(OutputCopy{task, ev.node});
          auto& used = wave_attempts[static_cast<std::size_t>(ev.task)];
          used = std::max(used, ev.attempt + 1);
        }
        for (std::size_t i = 0; i < lost.size(); ++i) {
          next_attempt[static_cast<std::size_t>(lost[i])] += wave_attempts[i];
        }
        for (const int t : lost) {
          // The re-executed attempt re-does its full footprint.
          const IoStats& redo =
              executed.map_attempts[static_cast<std::size_t>(t)].back().io;
          result.io += redo;
          result.recovery_io += redo;
        }
        result.tasks_recomputed += static_cast<int>(lost.size());
        reduce_start = std::max(reduce_start, wave_start + wave_phase.duration);
        rescheduled = true;
        break;
      }
      if (!rescheduled) break;
    }
    if (pool != nullptr) pool->commit(reduce_phase.trace, reduce_start);
    result.recovery_seconds =
        reduce_start - (map_start + result.map_phase_seconds);
    result.reduce_phase_seconds = reduce_phase.duration;
    charge_phase(reduce_phase);
    merge_link_loads(&result.reduce_link_loads, reduce_phase.link_loads);
    result.reduce_trace = std::move(reduce_phase.trace);
  }

  result.sim_seconds = launch + result.lineage_stall_seconds +
                       result.map_phase_seconds + result.recovery_seconds +
                       result.reduce_phase_seconds;

  // Apply DFS-side consequences (block loss, re-replication) of every chaos
  // event up to this job's end before the next job executes its reads.
  if (chaos_ != nullptr) {
    chaos_->advance_to(start_seconds + result.sim_seconds);
  }

  if (metrics_ != nullptr) {
    metrics_->increment("jobs");
    metrics_->increment("map_tasks",
                        static_cast<std::uint64_t>(result.map_tasks));
    metrics_->increment("reduce_tasks",
                        static_cast<std::uint64_t>(result.reduce_tasks));
    metrics_->increment(
        "task_failures",
        static_cast<std::uint64_t>(result.failures_recovered));
    metrics_->increment("backup_attempts",
                        static_cast<std::uint64_t>(result.backups_run));
    metrics_->increment("shuffle_local_bytes", result.shuffle_local_bytes);
    metrics_->increment("shuffle_remote_bytes", result.shuffle_remote_bytes);
    metrics_->increment("tasks_recomputed",
                        static_cast<std::uint64_t>(result.tasks_recomputed));
    metrics_->increment(
        "chaos_attempts_killed",
        static_cast<std::uint64_t>(result.chaos_attempts_killed));
  }
  return result;
}

}  // namespace mri::mr

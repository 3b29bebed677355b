#include "sim/run_report.hpp"

#include <algorithm>

#include "common/json.hpp"

namespace mri {

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

}  // namespace

void aggregate_run_report(RunReport* report) {
  report->phase_reports.clear();
  report->failure_timeline.clear();
  report->master_seconds = 0.0;
  for (const MasterSpan& span : report->master_spans) {
    report->master_seconds += span.end - span.start;
  }
  report->busy_slot_seconds = 0.0;
  for (const PhaseTrace& phase : report->phases) {
    for (const TaskTraceEvent& e : phase.events) {
      report->busy_slot_seconds += e.end - e.start;
    }
  }
  report->cluster_utilization =
      report->total_slots > 0 && report->sim_seconds > 0.0
          ? report->busy_slot_seconds /
                (static_cast<double>(report->total_slots) *
                 report->sim_seconds)
          : 0.0;

  for (const PhaseTrace& phase : report->phases) {
    PhaseReport pr;
    pr.job = phase.job;
    pr.phase = phase.phase;
    pr.duration = phase.duration;

    std::map<int, double> task_end;          // effective completion per task
    std::map<int, int> attempts_per_slot;
    for (const TaskTraceEvent& e : phase.events) {
      ++pr.attempts;
      if (e.failed) ++pr.failures;
      if (e.backup) ++pr.backups;
      pr.busy_seconds += e.end - e.start;
      ++attempts_per_slot[e.slot];
      // Failed attempts never complete the task; winners and truncated
      // losers share the same end, so max over the rest is the completion.
      if (!e.failed) {
        auto [it, inserted] = task_end.emplace(e.task, e.end);
        if (!inserted) it->second = std::max(it->second, e.end);
      } else {
        task_end.emplace(e.task, 0.0);  // count the task even if all failed
      }
    }
    pr.tasks = static_cast<int>(task_end.size());
    for (const auto& [slot, n] : attempts_per_slot) {
      pr.waves = std::max(pr.waves, n);
    }
    if (report->total_slots > 0 && pr.duration > 0.0) {
      pr.slot_utilization =
          pr.busy_seconds /
          (static_cast<double>(report->total_slots) * pr.duration);
    }
    std::vector<double> ends;
    ends.reserve(task_end.size());
    for (const auto& [task, end] : task_end) ends.push_back(end);
    pr.median_task_end = median_of(ends);
    pr.max_task_end = ends.empty() ? 0.0 : *std::max_element(ends.begin(),
                                                             ends.end());
    pr.straggler_ratio =
        pr.median_task_end > 0.0 ? pr.max_task_end / pr.median_task_end : 1.0;
    report->phase_reports.push_back(std::move(pr));

    // Failure-recovery timeline: each failed attempt paired with the start
    // of the next attempt of the same task.
    for (const TaskTraceEvent& e : phase.events) {
      if (!e.failed) continue;
      FailureRecovery f;
      f.job = phase.job;
      f.phase = phase.phase;
      f.task = e.task;
      f.attempt = e.attempt;
      f.node = e.node;
      f.failed_at = phase.start + e.end;
      f.retry_start = -1.0;
      for (const TaskTraceEvent& r : phase.events) {
        if (r.task == e.task && r.attempt == e.attempt + 1 && !r.backup) {
          f.retry_start = phase.start + r.start;
          break;
        }
      }
      report->failure_timeline.push_back(std::move(f));
    }
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q <= 0.0) return values.front();
  if (q >= 1.0) return values.back();
  // Linear interpolation between closest ranks (numpy's default).
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

void aggregate_tenant_reports(RunReport* report,
                              const std::vector<RequestStat>& stats) {
  report->request_spans.clear();
  report->tenants.clear();
  report->fairness_index = 1.0;

  // Request lanes, in request-id order (the order the service assigned ids).
  report->request_spans.reserve(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const RequestStat& s = stats[i];
    RequestSpan span;
    // Built in two steps: gcc 12 false-positives -Wrestrict on the
    // `const char* + std::string&&` overload here under -O2.
    span.request = "r";
    span.request += std::to_string(i);
    span.tenant = s.tenant;
    span.arrival = s.arrival;
    span.dispatch = s.rejected ? s.arrival : s.dispatch;
    span.finish = s.rejected ? s.arrival : s.finish;
    span.rejected = s.rejected;
    report->request_spans.push_back(std::move(span));
  }

  // Group by tenant; map keeps the output deterministic (sorted by name).
  std::map<std::string, std::vector<const RequestStat*>> by_tenant;
  for (const RequestStat& s : stats) by_tenant[s.tenant].push_back(&s);

  for (const auto& [tenant, reqs] : by_tenant) {
    TenantReport tr;
    tr.tenant = tenant;
    std::vector<double> latencies;
    double wait_sum = 0.0;
    for (const RequestStat* s : reqs) {
      tr.weight = s->weight;  // identical for all of a tenant's requests
      ++tr.submitted;
      if (s->rejected) {
        ++tr.rejected;
        continue;
      }
      ++tr.admitted;
      tr.retries += s->retries;
      const double wait = s->dispatch - s->arrival;
      wait_sum += wait;
      tr.queue_wait_max = std::max(tr.queue_wait_max, wait);
      if (s->unrecoverable) {
        // Abandoned requests were dispatched and held slots until the
        // abandon time, but never produced a result; keep them out of the
        // latency percentiles and deadline accounting.
        ++tr.unrecoverable;
        tr.slot_seconds += s->slot_seconds;
        continue;
      }
      latencies.push_back(s->finish - s->arrival);
      tr.slot_seconds += s->slot_seconds;
      if (s->deadline_seconds > 0.0 &&
          s->finish > s->arrival + s->deadline_seconds) {
        ++tr.deadline_misses;
      }
    }
    if (tr.admitted > 0) wait_sum /= tr.admitted;
    tr.queue_wait_mean = wait_sum;
    tr.latency_p50 = percentile(latencies, 0.50);
    tr.latency_p95 = percentile(latencies, 0.95);
    tr.latency_p99 = percentile(latencies, 0.99);
    report->tenants.push_back(std::move(tr));
  }

  // Jain's fairness index over x_i = slot_seconds_i / weight_i, counting
  // only tenants that actually ran work (an idle tenant is not unfairness).
  std::vector<double> shares;
  for (const TenantReport& tr : report->tenants) {
    if (tr.slot_seconds > 0.0 && tr.weight > 0) {
      shares.push_back(tr.slot_seconds / tr.weight);
    }
  }
  if (shares.size() > 1) {
    double sum = 0.0, sum_sq = 0.0;
    for (double x : shares) {
      sum += x;
      sum_sq += x * x;
    }
    report->fairness_index =
        sum_sq > 0.0
            ? (sum * sum) / (static_cast<double>(shares.size()) * sum_sq)
            : 1.0;
  }
}

namespace {

void write_io(JsonWriter& w, std::string_view key, const IoStats& io) {
  w.begin_object(key)
      .field("bytes_written", io.bytes_written)
      .field("bytes_read", io.bytes_read)
      .field("bytes_transferred", io.bytes_transferred)
      .field("bytes_replicated", io.bytes_replicated)
      .field("bytes_written_memory", io.bytes_written_memory)
      .field("bytes_read_memory", io.bytes_read_memory)
      .field("bytes_spilled", io.bytes_spilled)
      .field("bytes_parity", io.bytes_parity)
      .field("bytes_reconstructed", io.bytes_reconstructed)
      .field("degraded_reads", io.degraded_reads)
      .field("mults", io.mults)
      .field("adds", io.adds)
      .end_object();
}

const char* chaos_kind_name(ChaosEventKind kind) {
  switch (kind) {
    case ChaosEventKind::kKillNode: return "kill";
    case ChaosEventKind::kDegradeNode: return "degrade";
    case ChaosEventKind::kCorruptBlock: return "corrupt_block";
    case ChaosEventKind::kBlockReadError: break;
  }
  return "read_error";
}

}  // namespace

std::string run_report_json(const RunReport& report) {
  JsonWriter w(12);
  w.begin_object()
      .field("sim_seconds", report.sim_seconds)
      .field("jobs", report.jobs)
      .field("failures_recovered", report.failures_recovered)
      .field("backups_run", report.backups_run)
      .field("total_slots", report.total_slots)
      .field("busy_slot_seconds", report.busy_slot_seconds)
      .field("cluster_utilization", report.cluster_utilization);
  write_io(w, "io", report.io);
  w.begin_object("shuffle")
      .field("local_bytes", report.shuffle_local_bytes)
      .field("remote_bytes", report.shuffle_remote_bytes)
      .end_object();
  write_io(w, "dfs_io", report.dfs_io);
  // Network keys are always present (stable schema); disabled with an empty
  // link list on flat runs.
  const NetworkReport& net = report.network;
  w.begin_object("network")
      .field("enabled", net.enabled)
      .field("topology", net.topology)
      .field("racks", net.racks)
      .field("oversubscription", net.oversubscription)
      .field("rack_aware_placement", net.rack_aware_placement)
      .field("node_local_bytes", net.node_local_bytes)
      .field("rack_local_bytes", net.rack_local_bytes)
      .field("cross_rack_bytes", net.cross_rack_bytes)
      .field("rack_local_attempts", net.rack_local_attempts)
      .field("cross_rack_attempts", net.cross_rack_attempts)
      .begin_array("links");
  for (const LinkReport& l : net.links) {
    w.begin_object()
        .field("name", l.name)
        .field("bytes", l.bytes)
        .field("busy_seconds", l.busy_seconds)
        .field("peak_utilization", l.peak_utilization)
        .end_object();
  }
  w.end_array().end_object();
  // Recovery keys are always present (stable schema); all zero and an
  // empty event list on chaos-free runs.
  const RecoveryReport& rec = report.recovery;
  w.begin_object("recovery")
      .field("nodes_killed", rec.nodes_killed)
      .field("nodes_degraded", rec.nodes_degraded)
      .field("read_errors_injected", rec.read_errors_injected)
      .field("read_errors_survived", rec.read_errors_survived)
      .field("tasks_recomputed", rec.tasks_recomputed)
      .field("attempts_killed", rec.attempts_killed)
      .field("re_replicated_bytes", rec.re_replicated_bytes)
      .field("re_replicated_blocks", rec.re_replicated_blocks)
      .field("blocks_lost", rec.blocks_lost)
      .field("re_replication_seconds", rec.re_replication_seconds)
      .field("recovery_seconds", rec.recovery_seconds)
      .field("request_retries", rec.request_retries)
      .field("requests_unrecoverable", rec.requests_unrecoverable)
      .field("partitions_recomputed", rec.partitions_recomputed)
      .field("lineage_waves", rec.lineage_waves)
      .field("lineage_recompute_seconds", rec.lineage_recompute_seconds)
      .field("lineage_recomputed_bytes", rec.lineage_recomputed_bytes)
      .field("ec_cells_reconstructed", rec.ec_cells_reconstructed)
      .field("ec_reconstructed_bytes", rec.ec_reconstructed_bytes);
  write_io(w, "recovery_io", rec.recovery_io);
  w.end_object();
  // Engine keys are always present (stable schema); disabled with empty
  // event lists on Hadoop-style disk-tier runs.
  const EngineReport& eng = report.engine;
  w.begin_object("engine")
      .field("enabled", eng.enabled)
      .begin_object("cache")
      .field("insertions", eng.cache_insertions)
      .field("evictions", eng.cache_evictions)
      .field("hits", eng.cache_hits)
      .field("resident_bytes", eng.cache_resident_bytes)
      .field("peak_resident_bytes", eng.cache_peak_resident_bytes)
      .field("spilled_bytes", eng.spilled_bytes)
      .end_object()
      .field("tracked_partitions", eng.tracked_partitions)
      .field("partitions_recomputed", eng.partitions_recomputed)
      .field("lineage_waves", eng.lineage_waves)
      .field("recompute_seconds", eng.recompute_seconds)
      .field("recomputed_bytes", eng.recomputed_bytes)
      .field("lineage_stall_seconds", eng.lineage_stall_seconds)
      .begin_array("spills");
  for (const EngineSpillSpan& s : eng.spills) {
    w.begin_object()
        .field("at", s.at)
        .field("path", s.path)
        .field("bytes", s.bytes)
        .end_object();
  }
  w.end_array().begin_array("recomputes");
  for (const EngineRecomputeSpan& r : eng.recomputes) {
    w.begin_object()
        .field("at", r.at)
        .field("duration", r.duration)
        .field("wave", r.wave)
        .field("path", r.path)
        .field("bytes", r.bytes)
        .end_object();
  }
  w.end_array().end_object();
  // Storage keys are always present (stable schema); on replicated runs the
  // policy is "replicate" and every EC/cache counter is zero.
  const StorageReport& sto = report.storage;
  w.begin_object("storage")
      .field("policy", sto.policy)
      .field("ec_k", sto.ec_k)
      .field("ec_m", sto.ec_m)
      .field("logical_bytes", sto.logical_bytes)
      .field("physical_bytes", sto.physical_bytes)
      .field("physical_overhead", sto.physical_overhead)
      .field("parity_bytes", sto.parity_bytes)
      .field("reconstructed_bytes", sto.reconstructed_bytes)
      .field("degraded_reads", sto.degraded_reads)
      .field("cells_reconstructed", sto.cells_reconstructed)
      .begin_object("hot_cache")
      .field("capacity_bytes", sto.hot_cache_capacity_bytes)
      .field("resident_bytes", sto.hot_cache_resident_bytes)
      .field("resident_files", sto.hot_cache_resident_files)
      .field("hits", sto.hot_cache_hits)
      .field("hit_bytes", sto.hot_cache_hit_bytes)
      .end_object()
      .begin_array("reconstructions");
  for (const StorageReconstruction& r : sto.reconstructions) {
    w.begin_object()
        .field("at", r.at)
        .field("node", r.node)
        .field("cells", r.cells)
        .field("bytes", r.bytes)
        .field("seconds", r.seconds)
        .end_object();
  }
  w.end_array().end_object();
  // Integrity keys are always present (stable schema); with verification
  // off and no corruption every counter is zero and both lists are empty.
  const IntegrityReport& integ = report.integrity;
  w.begin_object("integrity")
      .field("verify_checksums", integ.verify_checksums)
      .field("scrub_interval_seconds", integ.scrub_interval_seconds)
      .field("cells_checksummed", integ.cells_checksummed)
      .field("cells_verified", integ.cells_verified)
      .field("bytes_verified", integ.bytes_verified)
      .field("corruptions_injected", integ.corruptions_injected)
      .field("corruptions_detected", integ.corruptions_detected)
      .field("cells_repaired_copy", integ.cells_repaired_copy)
      .field("cells_repaired_ec", integ.cells_repaired_ec)
      .field("cells_repaired_lineage", integ.cells_repaired_lineage)
      .field("cells_quarantined", integ.cells_quarantined)
      .field("scrub_passes", integ.scrub_passes)
      .field("scrub_bytes_scanned", integ.scrub_bytes_scanned)
      .field("scrub_seconds", integ.scrub_seconds)
      .begin_array("repairs");
  for (const IntegrityRepairSpan& r : integ.repairs) {
    w.begin_object()
        .field("at", r.at)
        .field("node", r.node)
        .field("path", r.path)
        .field("cell", r.cell)
        .field("bytes", r.bytes)
        .field("kind", r.kind)
        .field("by_scrubber", r.by_scrubber)
        .end_object();
  }
  w.end_array().begin_array("scrubs");
  for (const ScrubPassSpan& s : integ.scrub_spans) {
    w.begin_object()
        .field("at", s.at)
        .field("seconds", s.seconds)
        .field("bytes_scanned", s.bytes_scanned)
        .field("cells_verified", s.cells_verified)
        .field("cells_repaired", s.cells_repaired)
        .end_object();
  }
  w.end_array().end_object();
  // Kernel keys are always present (stable schema). Wall-clock kernel
  // timings (kernel_seconds / achieved_gflops) are intentionally NOT
  // emitted: they vary per host, and same-seed reports must stay
  // bit-identical.
  const KernelReport& ker = report.kernel;
  w.begin_object("kernel")
      .field("backend", ker.backend)
      .field("multiply_strategy", ker.multiply_strategy)
      .field("replication", ker.replication)
      .field("multiply_rounds", ker.multiply_rounds)
      .field("gemm_calls", ker.gemm_calls)
      .field("trsm_calls", ker.trsm_calls)
      .field("kernel_flops", ker.kernel_flops)
      .end_object();
  w.begin_array("chaos_events");
  for (const ChaosEvent& e : report.chaos_events) {
    w.begin_object()
        .field("kind", chaos_kind_name(e.kind))
        .field("at", e.at)
        .field("node", e.node)
        .field("factor", e.factor)
        .end_object();
  }
  w.end_array().begin_object("counters");
  for (const auto& [name, value] : report.counters) w.field(name, value);
  w.end_object().begin_array("phases");
  for (const PhaseReport& p : report.phase_reports) {
    w.begin_object()
        .field("job", p.job)
        .field("phase", p.phase)
        .field("tasks", p.tasks)
        .field("attempts", p.attempts)
        .field("failures", p.failures)
        .field("backups", p.backups)
        .field("waves", p.waves)
        .field("duration", p.duration)
        .field("busy_seconds", p.busy_seconds)
        .field("slot_utilization", p.slot_utilization)
        .field("median_task_end", p.median_task_end)
        .field("max_task_end", p.max_task_end)
        .field("straggler_ratio", p.straggler_ratio)
        .end_object();
  }
  w.end_array().begin_array("job_spans");
  for (const JobSpan& s : report.job_spans) {
    w.begin_object()
        .field("job", s.job)
        .field("start", s.start)
        .field("end", s.end)
        .end_object();
  }
  w.end_array()
      .begin_object("master")
      .field("seconds", report.master_seconds)
      .begin_array("spans");
  for (const MasterSpan& s : report.master_spans) {
    w.begin_object().field("start", s.start).field("end", s.end).end_object();
  }
  w.end_array().end_object().begin_array("failure_timeline");
  for (const FailureRecovery& f : report.failure_timeline) {
    w.begin_object()
        .field("job", f.job)
        .field("phase", f.phase)
        .field("task", f.task)
        .field("attempt", f.attempt)
        .field("node", f.node)
        .field("failed_at", f.failed_at)
        .field("retry_start", f.retry_start)
        .end_object();
  }
  // Service-layer keys are always present (stable schema for the service
  // bench's consumers); both arrays are empty for single-run reports.
  w.end_array()
      .field("fairness_index", report.fairness_index)
      .begin_array("tenants");
  for (const TenantReport& t : report.tenants) {
    w.begin_object()
        .field("tenant", t.tenant)
        .field("weight", t.weight)
        .field("submitted", t.submitted)
        .field("admitted", t.admitted)
        .field("rejected", t.rejected)
        .field("queue_wait_mean", t.queue_wait_mean)
        .field("queue_wait_max", t.queue_wait_max)
        .field("latency_p50", t.latency_p50)
        .field("latency_p95", t.latency_p95)
        .field("latency_p99", t.latency_p99)
        .field("slot_seconds", t.slot_seconds)
        .field("deadline_misses", t.deadline_misses)
        .field("retries", t.retries)
        .field("unrecoverable", t.unrecoverable)
        .end_object();
  }
  w.end_array().begin_array("requests");
  for (const RequestSpan& r : report.request_spans) {
    w.begin_object()
        .field("request", r.request)
        .field("tenant", r.tenant)
        .field("arrival", r.arrival)
        .field("dispatch", r.dispatch)
        .field("finish", r.finish)
        .field("rejected", r.rejected)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

namespace {

// Chrome trace events: every event carries ph/name/cat/pid/tid/ts, then a
// complete ("X") event its duration or an instant ("i") event its scope
// ("t" thread, "g" global), then an "args" object. begin_event writes the
// head and opens "args" for the caller; end_event closes both.
struct EventTime {
  double ts_us;
  double dur_us = 0.0;         // "X" events
  const char* scope = nullptr;  // "i" events: set instead of dur_us
};

JsonWriter& begin_event(JsonWriter& w, std::string_view name,
                        std::string_view cat, long long pid, long long tid,
                        EventTime time) {
  w.begin_object()
      .field("ph", time.scope == nullptr ? "X" : "i")
      .field("name", name)
      .field("cat", cat)
      .field("pid", pid)
      .field("tid", tid)
      .field("ts", time.ts_us);
  if (time.scope == nullptr) {
    w.field("dur", time.dur_us);
  } else {
    w.field("s", time.scope);
  }
  return w.begin_object("args");
}

void end_event(JsonWriter& w) { w.end_object().end_object(); }

EventTime span_us(double start, double seconds) {
  return {start * 1e6, seconds * 1e6};
}

EventTime instant_us(double at, const char* scope) {
  return {at * 1e6, 0.0, scope};
}

// The metadata record that labels a pid's swimlane group.
void process_name(JsonWriter& w, long long pid, std::string_view label) {
  w.begin_object()
      .field("ph", "M")
      .field("name", "process_name")
      .field("pid", pid)
      .begin_object("args")
      .field("name", label)
      .end_object()
      .end_object();
}

}  // namespace

std::string chrome_trace_json(const RunReport& report) {
  // Pseudo-process ids for the run-level lanes, far above any node id.
  constexpr int kJobsPid = 1000000;
  constexpr int kMasterPid = 1000001;
  constexpr int kRequestsPid = 1000002;
  constexpr int kFaultsPid = 1000003;
  constexpr int kNetworkPid = 1000004;
  constexpr int kEnginePid = 1000005;
  constexpr int kStoragePid = 1000006;
  constexpr int kIntegrityPid = 1000007;
  JsonWriter w(12);
  w.begin_array();
  std::string name;  // event-name scratch, reused across events
  // Process metadata so chrome://tracing labels the per-node swimlanes.
  std::map<int, bool> nodes_seen;
  for (const PhaseTrace& phase : report.phases) {
    for (const TaskTraceEvent& e : phase.events) nodes_seen[e.node] = true;
  }
  for (const auto& [node, seen] : nodes_seen) {
    name = "node ";
    name += std::to_string(node);
    process_name(w, node, name);
  }
  if (!report.job_spans.empty()) {
    process_name(w, kJobsPid, "jobs");
    // One lane (tid) per job: overlap-scheduled jobs render side by side.
    int lane = 0;
    for (const JobSpan& s : report.job_spans) {
      begin_event(w, s.job, "job", kJobsPid, lane++,
                  span_us(s.start, s.end - s.start));
      end_event(w);
    }
  }
  if (!report.master_spans.empty()) {
    process_name(w, kMasterPid, "master");
    for (const MasterSpan& s : report.master_spans) {
      begin_event(w, "master work", "master", kMasterPid, 0,
                  span_us(s.start, s.end - s.start))
          .field("mults", s.io.mults)
          .field("bytes_read", s.io.bytes_read);
      end_event(w);
    }
  }
  if (!report.request_spans.empty()) {
    process_name(w, kRequestsPid, "requests");
    // One lane per request: queued (arrival->dispatch) then run
    // (dispatch->finish); rejected requests render as instant markers.
    int lane = 0;
    for (const RequestSpan& r : report.request_spans) {
      if (r.rejected) {
        name = r.request;
        name += " rejected";
        begin_event(w, name, "request", kRequestsPid, lane,
                    instant_us(r.arrival, "t"))
            .field("tenant", r.tenant);
        end_event(w);
      } else {
        name = r.request;
        name += " queued";
        begin_event(w, name, "request", kRequestsPid, lane,
                    span_us(r.arrival, r.dispatch - r.arrival))
            .field("tenant", r.tenant);
        end_event(w);
        name = r.request;
        name += " run";
        begin_event(w, name, "request", kRequestsPid, lane,
                    span_us(r.dispatch, r.finish - r.dispatch))
            .field("tenant", r.tenant);
        end_event(w);
      }
      ++lane;
    }
  }
  // Fault lane: every chaos event that fired, as an instant marker, plus
  // the recovery-wave attempts as spans (mirrored from their node lanes so
  // the damage and the repair read side by side).
  const bool any_recovery = [&report] {
    for (const PhaseTrace& phase : report.phases) {
      for (const TaskTraceEvent& e : phase.events) {
        if (e.recovery) return true;
      }
    }
    return false;
  }();
  if (!report.chaos_events.empty() || any_recovery) {
    process_name(w, kFaultsPid, "faults");
    for (const ChaosEvent& e : report.chaos_events) {
      name = e.kind == ChaosEventKind::kKillNode       ? "kill node "
             : e.kind == ChaosEventKind::kDegradeNode  ? "degrade node "
             : e.kind == ChaosEventKind::kCorruptBlock ? "corrupt block node "
                                                       : "read error node ";
      name += std::to_string(e.node);
      begin_event(w, name, "chaos", kFaultsPid, 0, instant_us(e.at, "g"))
          .field("node", e.node)
          .field("factor", e.factor);
      end_event(w);
    }
    for (const PhaseTrace& phase : report.phases) {
      for (const TaskTraceEvent& e : phase.events) {
        if (!e.recovery) continue;
        name = "recompute ";
        name += phase.job;
        name += '/';
        name += phase.phase;
        name += " t";
        name += std::to_string(e.task);
        begin_event(w, name, "recovery", kFaultsPid, 1,
                    span_us(phase.start + e.start, e.end - e.start))
            .field("task", e.task)
            .field("node", e.node);
        end_event(w);
      }
    }
  }
  // Network lane: per phase, one span per link that carried traffic, over
  // the phase's extent; args carry the link's bytes/busy/peak so hovering a
  // span shows where the phase's traffic concentrated.
  const bool any_link_loads = [&report] {
    for (const PhaseTrace& phase : report.phases) {
      for (const LinkReport& l : phase.link_loads) {
        if (l.bytes > 0) return true;
      }
    }
    return false;
  }();
  if (any_link_loads) {
    process_name(w, kNetworkPid, "network");
    for (const PhaseTrace& phase : report.phases) {
      for (std::size_t i = 0; i < phase.link_loads.size(); ++i) {
        const LinkReport& l = phase.link_loads[i];
        if (l.bytes == 0) continue;
        name = l.name;
        if (name.empty() && i < report.network.links.size()) {
          name = report.network.links[i].name;
        }
        if (name.empty()) {
          name = "link ";
          name += std::to_string(i);
        }
        begin_event(w, name, "network", kNetworkPid,
                    static_cast<long long>(i),
                    span_us(phase.start, phase.duration))
            .field("bytes", l.bytes)
            .field("busy_seconds", l.busy_seconds)
            .field("peak_utilization", l.peak_utilization);
        end_event(w);
      }
    }
  }
  // Engine lane: cache spills as instant markers (tid 0) and lineage
  // recomputations as spans stacked by recovery wave (tid 1 + wave), so a
  // node kill's rebuild reads next to the faults lane it responds to.
  if (!report.engine.spills.empty() || !report.engine.recomputes.empty()) {
    process_name(w, kEnginePid, "engine");
    for (const EngineSpillSpan& s : report.engine.spills) {
      name = "spill ";
      name += s.path;
      begin_event(w, name, "engine", kEnginePid, 0, instant_us(s.at, "t"))
          .field("bytes", s.bytes);
      end_event(w);
    }
    for (const EngineRecomputeSpan& r : report.engine.recomputes) {
      name = "recompute ";
      name += r.path;
      begin_event(w, name, "engine", kEnginePid, 1 + r.wave,
                  span_us(r.at, r.duration))
          .field("wave", r.wave)
          .field("bytes", r.bytes);
      end_event(w);
    }
  }
  // Storage lane: one span per EC stripe reconstruction, stacked in kill
  // order, so decode-based repair reads next to the faults lane that
  // triggered it.
  if (!report.storage.reconstructions.empty()) {
    process_name(w, kStoragePid, "storage");
    int lane = 0;
    for (const StorageReconstruction& r : report.storage.reconstructions) {
      name = "reconstruct node ";
      name += std::to_string(r.node);
      begin_event(w, name, "storage", kStoragePid, lane++,
                  span_us(r.at, r.seconds))
          .field("node", r.node)
          .field("cells", r.cells)
          .field("bytes", r.bytes);
      end_event(w);
    }
  }
  // Integrity lane: scrubber passes as spans (tid 0) and individual repairs
  // as instant markers (tid 1), so detection-and-repair reads next to the
  // faults lane that injected the corruption.
  if (!report.integrity.repairs.empty() ||
      !report.integrity.scrub_spans.empty()) {
    process_name(w, kIntegrityPid, "integrity");
    for (const ScrubPassSpan& s : report.integrity.scrub_spans) {
      begin_event(w, "scrub pass", "integrity", kIntegrityPid, 0,
                  span_us(s.at, s.seconds))
          .field("bytes_scanned", s.bytes_scanned)
          .field("cells_verified", s.cells_verified)
          .field("cells_repaired", s.cells_repaired);
      end_event(w);
    }
    for (const IntegrityRepairSpan& r : report.integrity.repairs) {
      name = "repair ";
      name += r.kind;
      name += ' ';
      name += r.path;
      begin_event(w, name, "integrity", kIntegrityPid, 1,
                  instant_us(r.at, "t"))
          .field("node", r.node)
          .field("path", r.path)
          .field("cell", r.cell)
          .field("bytes", r.bytes)
          .field("by_scrubber", r.by_scrubber);
      end_event(w);
    }
  }
  for (const PhaseTrace& phase : report.phases) {
    for (const TaskTraceEvent& e : phase.events) {
      name = phase.job;
      name += '/';
      name += phase.phase;
      name += " t";
      name += std::to_string(e.task);
      name += " a";
      name += std::to_string(e.attempt);
      name += e.recovery  ? " (recovery)"
              : e.chaos   ? " (node lost)"
              : e.backup  ? " (backup)"
              : e.failed  ? " (failed)"
                          : "";
      begin_event(w, name, phase.phase, e.node, e.slot,
                  span_us(phase.start + e.start, e.end - e.start))
          .field("task", e.task)
          .field("attempt", e.attempt)
          .field("failed", e.failed)
          .field("backup", e.backup)
          .field("chaos", e.chaos)
          .field("recovery", e.recovery);
      end_event(w);
    }
  }
  w.end_array();
  return w.str();
}

}  // namespace mri

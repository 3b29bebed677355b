#include "service/service.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "dfs/path.hpp"
#include "mapreduce/job_graph.hpp"
#include "mapreduce/runtime.hpp"
#include "mapreduce/trace_export.hpp"
#include "matrix/generate.hpp"
#include "service/fair_share.hpp"

namespace mri::service {

namespace {

double trace_slot_seconds(const std::vector<TaskTraceEvent>& events) {
  double total = 0.0;
  for (const TaskTraceEvent& e : events) total += e.end - e.start;
  return total;
}

}  // namespace

double retry_backoff(const RetryPolicy& retry, int attempts_done) {
  // Clamp multiplicatively at every step: the naive "multiply then clamp
  // once" escalation overflows to +inf after ~700 doublings, and an infinite
  // backoff wedges the retry queue forever. Once the cap is hit, further
  // steps cannot change the answer, so return early.
  double b = std::min(retry.backoff_seconds, retry.max_backoff_seconds);
  for (int i = 1; i < attempts_done; ++i) {
    if (b >= retry.max_backoff_seconds) return retry.max_backoff_seconds;
    b = std::min(b * retry.backoff_multiplier, retry.max_backoff_seconds);
  }
  return b;
}

InversionService::InversionService(const Cluster* cluster, dfs::Dfs* fs,
                                   ThreadPool* pool, ServiceOptions options,
                                   FailureInjector* failures,
                                   MetricsRegistry* metrics,
                                   ChaosEngine* chaos)
    : cluster_(cluster), fs_(fs), pool_(pool), options_(std::move(options)),
      failures_(failures), metrics_(metrics), chaos_(chaos) {
  MRI_REQUIRE(cluster != nullptr && fs != nullptr && pool != nullptr,
              "InversionService needs a cluster, a DFS and a thread pool");
  MRI_REQUIRE(options_.max_concurrent >= 1,
              "max_concurrent must be >= 1, got " << options_.max_concurrent);
  MRI_REQUIRE(options_.retry.max_retries >= 0 &&
                  options_.retry.backoff_seconds >= 0.0 &&
                  options_.retry.backoff_multiplier >= 1.0 &&
                  options_.retry.max_backoff_seconds >=
                      options_.retry.backoff_seconds,
              "invalid retry policy: max_retries "
                  << options_.retry.max_retries << ", backoff "
                  << options_.retry.backoff_seconds << "s x"
                  << options_.retry.backoff_multiplier << " capped at "
                  << options_.retry.max_backoff_seconds << 's');
}

ServiceResult InversionService::run(std::vector<InversionRequest> requests) {
  ServiceResult out;
  out.submitted = static_cast<int>(requests.size());

  // Request ids are arrival order; stats[id] is that request's record.
  std::stable_sort(requests.begin(), requests.end(),
                   [](const InversionRequest& a, const InversionRequest& b) {
                     return a.arrival_seconds < b.arrival_seconds;
                   });
  const std::size_t n = requests.size();
  for (std::size_t i = 0; i < n; ++i) {
    const InversionRequest& r = requests[i];
    MRI_REQUIRE(r.order >= 1, "request r" << i << " has matrix order "
                                          << r.order);
    MRI_REQUIRE(r.arrival_seconds >= 0.0,
                "request r" << i << " arrives at " << r.arrival_seconds);
    if (!options_.shares.empty()) {
      bool known = false;
      for (const mr::TenantShare& s : options_.shares) {
        known = known || s.tenant == r.tenant;
      }
      MRI_REQUIRE(known, "request r"
                             << i << " is from tenant '" << r.tenant
                             << "', which has no share in the service's "
                                "tenant table; add it to ServiceOptions::"
                                "shares or clear the table for FCFS");
    }
  }

  mr::SlotPool slot_pool(cluster_->total_slots());
  if (!options_.shares.empty()) slot_pool.set_shares(options_.shares);
  AdmissionController admission(options_.admission);
  FairSharePicker picker(options_.shares);
  core::MapReduceInverter inverter(cluster_, fs_, pool_, failures_, metrics_,
                                   chaos_);

  auto weight_of = [&](const std::string& tenant) {
    for (const mr::TenantShare& s : options_.shares) {
      if (s.tenant == tenant) return s.weight;
    }
    return 1;
  };

  // Memory-budget admission (spin engine only): an order-n inversion keeps
  // roughly the partition pieces, the L/U factors and the inverse slices on
  // the memory tier at once — estimate 3 matrices of n² doubles. The charge
  // is held from admission until the request leaves the system.
  auto memory_footprint = [&](const InversionRequest& r) -> std::uint64_t {
    if (options_.inversion.engine != core::EngineKind::kSpin ||
        options_.admission.memory_budget_bytes_per_tenant == 0) {
      return 0;
    }
    const std::uint64_t n = static_cast<std::uint64_t>(r.order);
    return 3 * n * n * sizeof(double);
  };

  out.stats.resize(n);
  std::vector<mr::JobResult> all_jobs;
  std::vector<MasterSpan> all_master_spans;

  struct Running {
    std::size_t id;
    double finish;
  };
  /// A failed request waiting out its backoff before re-entering the queue.
  struct PendingRetry {
    std::size_t id;
    double ready;
  };
  std::vector<Running> running;
  std::vector<std::size_t> queue;  // admitted, waiting; arrival order
  std::vector<PendingRetry> retries;
  std::vector<int> attempt(n, 0);  // per-request attempt counter
  std::size_t next_arrival = 0;
  double clock = 0.0;

  const RetryPolicy& retry = options_.retry;
  auto backoff_for = [&retry](int attempts_done) {
    return retry_backoff(retry, attempts_done);
  };

  // Dispatch one queued request: place its whole pipeline on the timeline
  // starting at `now`, leasing slots from the shared pool as the tenant.
  // A pipeline that dies mid-run (chaos faults surface as mri::Error) is
  // either re-queued after a backoff or abandoned as unrecoverable.
  auto dispatch_one = [&](double now) {
    const std::size_t at = picker.pick(queue, requests);
    const std::size_t id = queue[at];
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(at));
    const InversionRequest& r = requests[id];
    RequestStat& stat = out.stats[id];
    const bool is_retry = attempt[id] > 0;
    // Retries left admission's bounded queue on their first dispatch.
    if (!is_retry) admission.on_dispatch(r.tenant);

    core::InversionOptions opts = options_.inversion;
    // Fresh work dir per attempt: the retry re-ingests its input from
    // scratch, placing blocks on whatever nodes are still alive.
    std::string leaf = "r";
    leaf += std::to_string(id);
    if (is_retry) {
      leaf += 'a';
      leaf += std::to_string(attempt[id]);
    }
    opts.work_dir = dfs::join(options_.inversion.work_dir, leaf);
    if (r.nb > 0) opts.nb = r.nb;

    mr::JobRunner runner(cluster_, fs_, core::task_pool_for(r.order, pool_),
                         failures_, metrics_, chaos_);
    mr::JobGraphOptions graph_options;
    graph_options.shared_pool = &slot_pool;
    graph_options.origin_seconds = now;
    graph_options.tenant = options_.shares.empty() ? std::string() : r.tenant;
    // A failed pipeline strands jobs nobody wait()s for; the service owns
    // the failure story, so keep the teardown quiet.
    graph_options.abandoned_error_handler =
        [](const std::string&, std::exception_ptr) {};
    mr::JobGraph graph(&runner, std::move(graph_options));

    if (!is_retry) stat.dispatch = now;
    try {
      const Matrix a = random_matrix(r.order, r.seed);
      core::MapReduceInverter::Result result =
          inverter.invert_on(graph, a, opts);
      const double finish = graph.total_sim_seconds();

      stat.finish = finish;
      for (const mr::JobResult& job : result.jobs) {
        stat.slot_seconds += trace_slot_seconds(job.map_trace) +
                             trace_slot_seconds(job.reduce_trace);
      }
      picker.charge(r.tenant, stat.slot_seconds);

      all_jobs.insert(all_jobs.end(), result.jobs.begin(), result.jobs.end());
      all_master_spans.insert(all_master_spans.end(),
                              result.master_spans.begin(),
                              result.master_spans.end());
      running.push_back({id, finish});
      out.makespan = std::max(out.makespan, finish);
      MRI_DEBUG() << "service: r" << id << " (" << r.tenant << ", order "
                  << r.order << ") dispatched at " << now << ", finishes at "
                  << finish;
    } catch (const Error& e) {
      // Half-placed pipelines have no meaningful makespan; the failure
      // surfaces at the dispatch instant. UnrecoverableBlock is thrown for
      // permanent data loss but may reach us wrapped in a JobError, so
      // classify by the message it stamps.
      const std::string what = e.what();
      const bool permanent = what.find("unrecoverable") != std::string::npos;
      ++attempt[id];
      const double ready = now + backoff_for(attempt[id]);
      bool can_retry = !permanent && attempt[id] <= retry.max_retries;
      if (can_retry && r.deadline_seconds > 0.0 &&
          ready > r.arrival_seconds + r.deadline_seconds) {
        can_retry = false;
      }
      if (can_retry) {
        ++stat.retries;
        ++out.retries;
        if (chaos_ != nullptr) chaos_->note_request_retry();
        retries.push_back({id, ready});
        MRI_INFO() << "service: r" << id << " (" << r.tenant
                   << ") attempt " << attempt[id] << " failed at " << now
                   << " (" << what << "); retrying at " << ready;
      } else {
        stat.unrecoverable = true;
        stat.finish = now;
        ++out.unrecoverable;
        if (chaos_ != nullptr) chaos_->note_request_unrecoverable();
        slot_pool.release(r.tenant);
        admission.release_memory(r.tenant, memory_footprint(r));
        out.makespan = std::max(out.makespan, now);
        MRI_WARN() << "service: r" << id << " (" << r.tenant
                   << ") abandoned after " << attempt[id] << " attempt(s): "
                   << what;
      }
    }
  };

  auto dispatch_all = [&](double now) {
    while (static_cast<int>(running.size()) < options_.max_concurrent &&
           !queue.empty()) {
      dispatch_one(now);
    }
  };

  while (next_arrival < n || !running.empty() || !retries.empty()) {
    // Earliest completion; ties by request id so the order is a function of
    // the schedule, not of vector layout.
    std::size_t done = running.size();
    for (std::size_t i = 0; i < running.size(); ++i) {
      if (done == running.size() ||
          running[i].finish < running[done].finish ||
          (running[i].finish == running[done].finish &&
           running[i].id < running[done].id)) {
        done = i;
      }
    }
    const double next_completion = done < running.size()
                                       ? running[done].finish
                                       : std::numeric_limits<double>::infinity();
    // Earliest backoff expiry, same id tie-break.
    std::size_t due = retries.size();
    for (std::size_t i = 0; i < retries.size(); ++i) {
      if (due == retries.size() || retries[i].ready < retries[due].ready ||
          (retries[i].ready == retries[due].ready &&
           retries[i].id < retries[due].id)) {
        due = i;
      }
    }
    const double next_retry = due < retries.size()
                                  ? retries[due].ready
                                  : std::numeric_limits<double>::infinity();
    const double arrival = next_arrival < n
                               ? requests[next_arrival].arrival_seconds
                               : std::numeric_limits<double>::infinity();

    if (next_completion <= next_retry && next_completion <= arrival) {
      // Completion first at ties: the freed slot (and the tenant's now-idle
      // share) is visible to the simultaneous retry or arrival.
      clock = next_completion;
      if (chaos_ != nullptr) chaos_->advance_to(clock);
      const std::size_t id = running[done].id;
      slot_pool.release(requests[id].tenant);
      admission.release_memory(requests[id].tenant,
                               memory_footprint(requests[id]));
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(done));
      dispatch_all(clock);
      continue;
    }
    if (next_retry <= arrival) {
      // Backoff expired: the request re-enters the dispatch queue (its
      // tenant share was never released, so fair-share state is unchanged).
      clock = next_retry;
      if (chaos_ != nullptr) chaos_->advance_to(clock);
      queue.push_back(retries[due].id);
      retries.erase(retries.begin() + static_cast<std::ptrdiff_t>(due));
      dispatch_all(clock);
      continue;
    }

    clock = arrival;
    if (chaos_ != nullptr) chaos_->advance_to(clock);
    const std::size_t id = next_arrival++;
    const InversionRequest& r = requests[id];
    RequestStat& stat = out.stats[id];
    stat.tenant = r.tenant;
    stat.weight = weight_of(r.tenant);
    stat.arrival = r.arrival_seconds;
    stat.deadline_seconds = r.deadline_seconds;
    if (admission.try_admit(r.tenant, memory_footprint(r))) {
      // The tenant has work in the system from now until completion; its
      // share stops being borrowable (work-conserving redistribution).
      slot_pool.acquire(r.tenant);
      queue.push_back(id);
      ++out.admitted;
    } else {
      stat.rejected = true;
      stat.dispatch = stat.finish = r.arrival_seconds;
      ++out.rejected;
      MRI_DEBUG() << "service: r" << id << " (" << r.tenant
                  << ") rejected at " << clock << " (queue "
                  << admission.queued() << ")";
    }
    dispatch_all(clock);
  }
  MRI_CHECK_MSG(queue.empty(), "service loop ended with queued requests");

  out.report = mr::build_run_report(all_jobs, *cluster_, metrics_,
                                    all_master_spans, chaos_,
                                    /*engine_stats=*/nullptr, fs_);
  aggregate_tenant_reports(&out.report, out.stats);
  return out;
}

}  // namespace mri::service

// Multi-tenant inversion service over one shared simulated cluster.
//
// InversionService::run() plays a request sequence through a discrete-event
// loop on the simulated clock: arrivals pass admission control (bounded
// queue, per-tenant quotas — see admission.hpp), the fair-share picker
// chooses dispatch order (fair_share.hpp), and every admitted request runs
// as its own inversion pipeline (a mr::JobGraph with the request's dispatch
// time as origin) leasing slots from ONE SlotPool under the tenant's
// fair-share identity. Up to max_concurrent requests overlap on the
// timeline; the pool's per-slot occupancy makes each request's phases see
// exactly the slots earlier-dispatched requests still hold.
//
// Determinism: the loop is single-threaded over simulated time; at equal
// event times completions process before arrivals (a freed execution slot
// is visible to the request arriving "at the same instant"), completions
// tie-break by request id, and all scheduling state (picker deficits,
// admission counts, pool occupancy) evolves only at event boundaries. The
// same request sequence therefore yields bit-identical reports on every
// run — the property the service bench's reproducibility check enforces.
//
// Execution is real (matrices are generated, inverted and checked into the
// DFS); only time is simulated. Dispatch places a request's whole pipeline
// synchronously, so requests' real executions are serialized even when
// their simulated spans overlap — the DFS sees one request at a time.
#pragma once

#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/inverter.hpp"
#include "core/options.hpp"
#include "dfs/dfs.hpp"
#include "mapreduce/scheduler.hpp"
#include "service/admission.hpp"
#include "service/request.hpp"
#include "sim/chaos.hpp"
#include "sim/cluster.hpp"
#include "sim/failure.hpp"
#include "sim/metrics.hpp"
#include "sim/run_report.hpp"

namespace mri::service {

/// Service-level retry for requests whose pipeline fails mid-run (chaos
/// faults: transient read errors, node loss mid-pipeline). A failed attempt
/// re-enters the dispatch queue after a capped exponential backoff and
/// re-runs from scratch in a fresh per-attempt work directory (re-ingesting
/// its input, so blocks land on surviving nodes). Retries bypass admission
/// (the request was admitted once); they compete for execution slots like
/// any queued request. A request is abandoned as unrecoverable when its
/// retries are exhausted, its data loss is permanent (UnrecoverableBlock),
/// or the backoff would push the next attempt past arrival + deadline
/// (requests without a deadline never abort early).
struct RetryPolicy {
  int max_retries = 2;
  double backoff_seconds = 60.0;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 900.0;
};

/// Backoff before retry attempt `attempts_done` (1 = first retry) under
/// `retry`: backoff_seconds escalated by backoff_multiplier per prior
/// attempt, clamped at max_backoff_seconds. The clamp is applied at every
/// step, so extreme settings (hundreds of retries, large multipliers) can
/// never overflow the double range to infinity mid-escalation.
double retry_backoff(const RetryPolicy& retry, int attempts_done);

struct ServiceOptions {
  /// Per-tenant fair-share weights (SlotPool::set_shares). Empty = no slot
  /// policy: one first-come first-served pool, every tenant weight 1 in the
  /// dispatch order. When set, every request's tenant must appear here.
  std::vector<mr::TenantShare> shares;

  /// Execution slots: requests whose pipelines may overlap on the timeline.
  int max_concurrent = 2;

  AdmissionOptions admission;

  RetryPolicy retry;

  /// Template inversion options for every request. work_dir becomes the
  /// per-request directory "<work_dir>/r<id>" ("<work_dir>/r<id>a<k>" for
  /// retry attempt k); nb is the default for requests that don't set their
  /// own. Selecting the spin engine here puts every request's intermediates
  /// on the memory tier and enables memory-budget admission (see
  /// AdmissionOptions::memory_budget_bytes_per_tenant); lineage recovery is
  /// a per-pipeline concern the service does not yet wire into its
  /// concurrent dispatch loop — chaos losses of memory-tier intermediates
  /// fall back to the existing service-level retry path.
  core::InversionOptions inversion;
};

struct ServiceResult {
  /// Cluster-level run report over every admitted request's jobs, plus the
  /// per-tenant SLO aggregates and request lanes (aggregate_tenant_reports).
  RunReport report;
  /// Per-request accounting in request-id (arrival) order; feedstock of
  /// report.tenants and report.request_spans.
  std::vector<RequestStat> stats;
  int submitted = 0;
  int admitted = 0;
  int rejected = 0;
  /// Service-level retries consumed and requests abandoned as
  /// unrecoverable, across all tenants (chaos runs; zero otherwise).
  int retries = 0;
  int unrecoverable = 0;
  /// Simulated time the last admitted request finished.
  double makespan = 0.0;
};

class InversionService {
 public:
  /// All pointers are borrowed. `failures`, `metrics` and `chaos` may be
  /// null. A chaos engine must already be bound to the DFS
  /// (Dfs::bind_chaos()); the service advances it along the simulated clock
  /// and feeds it retry/abandon accounting. An engine's applied-event state
  /// is monotonic, so reuse one engine for at most one run — comparing runs
  /// means building a fresh engine (and DFS) per run.
  InversionService(const Cluster* cluster, dfs::Dfs* fs, ThreadPool* pool,
                   ServiceOptions options, FailureInjector* failures = nullptr,
                   MetricsRegistry* metrics = nullptr,
                   ChaosEngine* chaos = nullptr);

  /// Plays `requests` (any order; sorted by arrival internally, stable) to
  /// completion and returns the merged report. May be called repeatedly;
  /// each run starts from an idle service but shares the DFS and metrics.
  ServiceResult run(std::vector<InversionRequest> requests);

 private:
  const Cluster* cluster_;
  dfs::Dfs* fs_;
  ThreadPool* pool_;
  ServiceOptions options_;
  FailureInjector* failures_;
  MetricsRegistry* metrics_;
  ChaosEngine* chaos_;
};

}  // namespace mri::service

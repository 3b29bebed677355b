// Bridge from executed MapReduce jobs to the sim-layer run report: lays the
// jobs' per-attempt traces onto the run timeline (job launch overhead, then
// map phase, then reduce phase) and aggregates wave/utilization/straggler
// statistics plus the failure-recovery timeline.
#pragma once

#include <vector>

#include "dfs/dfs.hpp"
#include "engine/spin_engine.hpp"
#include "mapreduce/job.hpp"
#include "sim/cluster.hpp"
#include "sim/metrics.hpp"
#include "sim/run_report.hpp"

namespace mri::mr {

/// Run-relative phase traces for a sequence of jobs (one PhaseTrace per
/// non-empty phase). Jobs must carry the start_seconds stamped by JobGraph.
std::vector<PhaseTrace> phase_traces(const std::vector<JobResult>& jobs);

/// Builds and aggregates the full run report. `metrics` (DFS-side totals and
/// named counters) may be null. `master_spans` (JobGraph::master_spans())
/// adds the master's serial-work lane; omit it for job-only reports.
/// `chaos` (optional) fills report.recovery — job-side fields summed from
/// the JobResults, DFS/service-side fields from the engine's RecoveryStats —
/// and report.chaos_events with the events that fired within the run.
/// `engine_stats` (optional, SPIN runs) fills report.engine: cache/lineage
/// totals plus the spill and recompute event lanes — spill events carry a
/// 1-based job ordinal that is mapped onto the admitting job's map-phase
/// start (ordinals align with `jobs` order: every job calls
/// SpinEngine::begin_job exactly once, in execution order).
/// `fs` (optional) fills report.storage: the configured storage policy,
/// logical vs physical footprint, EC/reconstruction totals, the stripe-repair
/// event lane and the namenode hot-block cache counters.
RunReport build_run_report(
    const std::vector<JobResult>& jobs, const Cluster& cluster,
    const MetricsRegistry* metrics,
    const std::vector<MasterSpan>& master_spans = {},
    const ChaosEngine* chaos = nullptr,
    const engine::EngineStats* engine_stats = nullptr,
    const dfs::Dfs* fs = nullptr);

}  // namespace mri::mr

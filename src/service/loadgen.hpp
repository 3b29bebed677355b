// Deterministic load generation for the inversion service.
//
// Two sources of requests:
//   * generate_load() — synthetic multi-tenant load for benches and tests:
//     per-tenant Poisson arrivals (open loop) or an all-at-time-zero burst
//     (closed loop / saturation). Fully reproducible: the same options give
//     the same request sequence on every platform — inter-arrival gaps are
//     sampled with a hand-rolled inverse-CDF exponential over mt19937_64
//     bits (std::exponential_distribution is implementation-defined), and
//     per-tenant streams are seeded by FNV-1a of the tenant name so adding
//     a tenant never perturbs the others' arrivals.
//   * parse_request_trace() — the CLI's --serve input: a line-oriented text
//     format declaring tenant shares and a request list (see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mapreduce/scheduler.hpp"
#include "matrix/matrix.hpp"
#include "service/request.hpp"

namespace mri::service {

/// One tenant's synthetic workload.
struct TenantLoad {
  std::string tenant;
  int weight = 1;
  /// Requests this tenant submits over the run.
  int requests = 8;
  /// Mean arrival rate in requests per simulated second (open loop only).
  double arrival_rate = 1.0;
  /// Matrix spec for every request (seeds vary per request).
  Index order = 48;
  int priority = 0;
  double deadline_seconds = 0.0;
};

struct LoadGenOptions {
  std::vector<TenantLoad> tenants;
  std::uint64_t seed = 42;
  /// Closed loop: every request arrives at t=0 (a saturating burst the
  /// admission queue and fair-share policy carve up). Open loop: Poisson
  /// arrivals at each tenant's arrival_rate.
  bool closed_loop = false;
};

/// Tenant shares implied by the load (for InversionService / SlotPool).
std::vector<mr::TenantShare> shares_of(const LoadGenOptions& options);

/// The merged request sequence, sorted by (arrival, tenant, per-tenant
/// index). Matrix seeds are derived from `seed`, the tenant name and the
/// request index, so every request inverts a distinct matrix.
std::vector<InversionRequest> generate_load(const LoadGenOptions& options);

/// Parsed --serve input: the tenant table plus the request list.
struct RequestTrace {
  std::vector<mr::TenantShare> shares;
  std::vector<InversionRequest> requests;
};

/// Parses the request-trace text format. Lines (blank lines are skipped, and
/// a field starting with '#' begins a comment that runs to the line's end):
///   tenant <name> <weight>
///   request <tenant> <arrival_seconds> <order> <seed> [priority] [deadline]
/// Every request's tenant must have been declared first. Every field that is
/// present must parse in full, arrival and deadline must be finite, and no
/// field may follow the last one. Throws InvalidArgument with the offending
/// line number on malformed input.
RequestTrace parse_request_trace(const std::string& text);

}  // namespace mri::service

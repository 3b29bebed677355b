// Admission control for the inversion service: a bounded wait queue with
// per-tenant quotas. The service is work-conserving (a request only waits
// when every execution slot is taken), so the queue bound is a bound on
// backlog — at offered load beyond capacity, excess requests are rejected
// at arrival instead of growing the queue without limit; the service counts
// each rejection for its run report.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/error.hpp"

namespace mri::service {

struct AdmissionOptions {
  /// Most requests allowed to wait (not counting running ones). The bound
  /// is checked at arrival, before the greedy dispatch that may immediately
  /// drain the new request — so with a free execution slot (empty queue by
  /// the work-conserving invariant) a request is never rejected.
  int max_queue_depth = 8;

  /// Per-tenant cap on waiting requests; 0 = only the global bound. Stops
  /// one bursty tenant from occupying the whole queue.
  int per_tenant_queue_limit = 0;

  /// Per-tenant cap on the estimated memory-tier footprint of in-flight
  /// requests (queued + running), in bytes; 0 = unlimited. Meaningful for
  /// spin-engine services, where every request's intermediates live in the
  /// workers' block caches: a tenant whose admitted requests would together
  /// exceed the budget is rejected at arrival instead of thrashing the
  /// cache. The service estimates a request's footprint from its matrix
  /// order (see InversionService) and releases it at completion/abandon.
  std::uint64_t memory_budget_bytes_per_tenant = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options) : options_(options) {
    MRI_REQUIRE(options_.max_queue_depth >= 1,
                "admission needs max_queue_depth >= 1, got "
                    << options_.max_queue_depth
                    << " (a zero-depth queue would reject every request "
                       "that cannot dispatch in the same instant)");
    MRI_REQUIRE(options_.per_tenant_queue_limit >= 0,
                "per_tenant_queue_limit must be >= 0, got "
                    << options_.per_tenant_queue_limit);
  }

  /// Admits the request into the wait queue when every bound allows it;
  /// otherwise returns false.
  /// `memory_bytes` is the request's estimated memory-tier footprint,
  /// charged against the tenant's budget until release_memory() (pass 0 for
  /// disk-tier requests or when no budget is configured).
  bool try_admit(const std::string& tenant, std::uint64_t memory_bytes = 0) {
    const bool global_full = queued_ >= options_.max_queue_depth;
    const bool tenant_full =
        options_.per_tenant_queue_limit > 0 &&
        queued_of(tenant) >= options_.per_tenant_queue_limit;
    const bool memory_full =
        options_.memory_budget_bytes_per_tenant > 0 &&
        memory_of(tenant) + memory_bytes >
            options_.memory_budget_bytes_per_tenant;
    if (global_full || tenant_full || memory_full) return false;
    ++queued_;
    ++per_tenant_[tenant];
    memory_[tenant] += memory_bytes;
    return true;
  }

  /// The tenant's request left the system (finished or was abandoned); its
  /// memory-budget charge frees up. No-op for zero charges.
  void release_memory(const std::string& tenant, std::uint64_t memory_bytes) {
    if (memory_bytes == 0) return;
    MRI_CHECK_MSG(memory_of(tenant) >= memory_bytes,
                  "memory release of " << memory_bytes << " bytes exceeds "
                      "tenant '" << tenant << "' in-flight charge");
    memory_[tenant] -= memory_bytes;
  }

  std::uint64_t memory_of(const std::string& tenant) const {
    const auto it = memory_.find(tenant);
    return it == memory_.end() ? 0 : it->second;
  }

  /// The dispatcher moved one of `tenant`'s requests from waiting to
  /// running; its queue slot frees up.
  void on_dispatch(const std::string& tenant) {
    MRI_CHECK_MSG(queued_ > 0 && queued_of(tenant) > 0,
                  "dispatch of tenant '" << tenant
                                         << "' with no queued request");
    --queued_;
    --per_tenant_[tenant];
  }

  int queued() const { return queued_; }
  int queued_of(const std::string& tenant) const {
    const auto it = per_tenant_.find(tenant);
    return it == per_tenant_.end() ? 0 : it->second;
  }

 private:
  AdmissionOptions options_;
  int queued_ = 0;
  std::map<std::string, int> per_tenant_;  // waiting requests per tenant
  /// In-flight memory-budget charges per tenant (admit -> release).
  std::map<std::string, std::uint64_t> memory_;
};

}  // namespace mri::service

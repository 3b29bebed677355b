// Small measurement helpers shared by the benchmark's workloads and probes:
// clocks, process resource usage, order statistics, seed derivation and the
// NaN-propagating inversion residual the correctness checks use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/matrix.hpp"

namespace perfbench {

/// Monotonic wall clock in seconds.
double wall_now();

/// Process CPU time so far (all threads), split into user and system.
struct CpuTime {
  double user = 0.0;
  double sys = 0.0;
  double total() const { return user + sys; }
};
CpuTime cpu_now();

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Highest percentile q (as a fraction) with at least ten samples beyond
/// it, for `count` samples; 0 when count < 20 supports none above p50.
double highest_supported_quantile(std::size_t count);

/// Quantile q in [0, 1] by linear interpolation (0 when empty).
double quantile(std::vector<double> values, double q);

/// Independent 64-bit seed for stream `tag` of a benchmark seed
/// (splitmix64 of the pair), so workload inputs never share a stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// max |I - A·A⁻¹| over all entries, +infinity if any entry is NaN or
/// infinite: unlike a std::max fold, a non-finite product never reads as a
/// small residual.
double residual(const mri::Matrix& a, const mri::Matrix& a_inv);

/// Throughput of `threads` concurrent copies of a fixed scalar loop relative
/// to one copy: about `threads` on dedicated idle cores, less when the host
/// shares or throttles them. Printed with the machine facts so that runs
/// made under different host load can be told apart.
double parallel_capacity(int threads);

/// Machine and build facts printed with every result.
struct MachineFacts {
  int nproc = 0;
  std::string cpu_model;
  long l2_bytes_per_core = 0;
  long l3_bytes = 0;
  std::string kernel_backend;
  std::string build_type;
};
MachineFacts machine_facts();

}  // namespace perfbench

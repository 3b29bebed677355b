#include "util.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "common/random.hpp"
#include "linalg/kernels/kernel.hpp"
#include "matrix/ops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuTime cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return CpuTime{seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double highest_supported_quantile(std::size_t count) {
  if (count < 20) return 0.0;
  // Whole percent q with count * (1 - q) >= 10 samples beyond it.
  const double q = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(count)));
  return q / 100.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  mri::SplitMix64 mix(seed ^ (tag * 0xD1B54A32D192ED03ull));
  return mix.next();
}

double residual(const mri::Matrix& a, const mri::Matrix& a_inv) {
  const mri::Matrix product =
      mri::matmul(a, a_inv, {.backend = mri::kernels::Backend::kThreaded});
  double worst = 0.0;
  for (mri::Index i = 0; i < product.rows(); ++i) {
    for (mri::Index j = 0; j < product.cols(); ++j) {
      const double d = std::abs(product(i, j) - (i == j ? 1.0 : 0.0));
      if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
      worst = std::max(worst, d);
    }
  }
  return worst;
}

namespace {

// A dependent multiply-add chain: fixed work, no memory traffic.
void spin_loop() {
  double x = 1.0;
  for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
  volatile double sink = x;  // keeps the chain from being optimized away
  (void)sink;
}

}  // namespace

double parallel_capacity(int threads) {
  const double t0 = wall_now();
  spin_loop();
  const double one = wall_now() - t0;
  const double t1 = wall_now();
  {
    std::vector<std::thread> workers;
    for (int i = 0; i < threads; ++i) workers.emplace_back(spin_loop);
    for (std::thread& w : workers) w.join();
  }
  return threads * one / (wall_now() - t1);
}

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    return s;
  }
#endif
  return "unknown";
}

}  // namespace

MachineFacts machine_facts() {
  MachineFacts f;
  f.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  f.cpu_model = cpu_brand();
  f.l2_bytes_per_core = sysconf(_SC_LEVEL2_CACHE_SIZE);
  f.l3_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  f.kernel_backend = mri::kernels::backend_name(mri::kernels::default_backend());
  f.build_type = PERFBENCH_BUILD_TYPE;
  return f;
}

}  // namespace perfbench

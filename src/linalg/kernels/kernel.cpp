#include "linalg/kernels/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "common/error.hpp"
#include "linalg/kernels/detail.hpp"

namespace mri::kernels {

namespace {

// Process-global monotone counters. Incremented once per public entry point
// (relaxed: they are statistics, not synchronization); wall time is kept in
// integer nanoseconds so fetch_add works everywhere.
std::atomic<std::uint64_t> g_gemm_calls{0};
std::atomic<std::uint64_t> g_trsm_calls{0};
std::atomic<std::uint64_t> g_flops{0};
std::atomic<std::uint64_t> g_nanos{0};

class ScopedKernelTimer {
 public:
  ScopedKernelTimer() : start_(std::chrono::steady_clock::now()) {}
  ~ScopedKernelTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    g_nanos.fetch_add(static_cast<std::uint64_t>(ns),
                      std::memory_order_relaxed);
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// -1 = not chosen yet; otherwise a Backend value. set_default_backend wins
// over the env var, which wins over hardware detection.
std::atomic<int> g_default_backend{-1};

Backend initial_default() {
  if (const char* env = std::getenv("MRI_KERNEL_BACKEND")) {
    Backend b;
    if (parse_backend(env, &b) && backend_available(b)) return b;
  }
  return detail::simd_supported() ? Backend::kSimd : Backend::kTiled;
}

// The substitution inside trsm_lower_left's diagonal block [d0, d1): row i
// of b, over columns [0, width[i + 1]), loses l[i][p]·x[p] for p in [d0, i)
// ascending, then is divided through by l[i][i] unless `unit_diag`.
void trsm_lower_block(bool unit_diag, std::int64_t d0, std::int64_t d1,
                      const std::int64_t* width, const double* l,
                      std::int64_t ldl, double* b, std::int64_t ldb) {
  for (std::int64_t i = d0; i < d1; ++i) {
    const std::int64_t cols = width[i + 1];
    double* bi = b + i * ldb;
    const double* li = l + i * ldl;
    for (std::int64_t p = d0; p < i; ++p) {
      const double lip = li[p];
      if (lip == 0.0) continue;  // triangular operands are half zeros
      const double* bp = b + p * ldb;
      for (std::int64_t j = 0; j < cols; ++j) bi[j] -= lip * bp[j];
    }
    if (!unit_diag) {
      const double inv_d = 1.0 / li[i];
      for (std::int64_t j = 0; j < cols; ++j) bi[j] *= inv_d;
    }
  }
}

}  // namespace

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kNaive: return "naive";
    case Backend::kTiled: return "tiled";
    case Backend::kSimd: return "simd";
    case Backend::kThreaded: return "threaded";
  }
  return "unknown";
}

bool parse_backend(std::string_view name, Backend* out) {
  MRI_REQUIRE(out != nullptr, "null backend out-param");
  if (name == "naive") {
    *out = Backend::kNaive;
  } else if (name == "tiled") {
    *out = Backend::kTiled;
  } else if (name == "simd") {
    *out = Backend::kSimd;
  } else if (name == "threaded") {
    *out = Backend::kThreaded;
  } else {
    return false;
  }
  return true;
}

std::string backend_description(Backend backend) {
  std::string out = backend_name(backend);
  if (backend == Backend::kSimd || backend == Backend::kThreaded) {
    out += " (";
    out += detail::simd_supported() ? detail::isa_name(detail::simd_isa())
                                    : "tiled";
    out += ")";
  }
  return out;
}

bool backend_available(Backend backend) {
  // kSimd silently degrades to kTiled in dispatch, but callers asking
  // "can this CPU actually run it" get the real answer.
  return backend != Backend::kSimd || detail::simd_supported();
}

Backend default_backend() {
  int v = g_default_backend.load(std::memory_order_relaxed);
  if (v < 0) {
    const Backend chosen = initial_default();
    int expected = -1;
    if (g_default_backend.compare_exchange_strong(
            expected, static_cast<int>(chosen), std::memory_order_relaxed)) {
      return chosen;
    }
    v = expected;  // somebody else chose first; use their value
  }
  return static_cast<Backend>(v);
}

void set_default_backend(Backend backend) {
  g_default_backend.store(static_cast<int>(backend),
                          std::memory_order_relaxed);
}

KernelCounters counters_snapshot() {
  KernelCounters c;
  c.gemm_calls = g_gemm_calls.load(std::memory_order_relaxed);
  c.trsm_calls = g_trsm_calls.load(std::memory_order_relaxed);
  c.flops = g_flops.load(std::memory_order_relaxed);
  c.seconds =
      static_cast<double>(g_nanos.load(std::memory_order_relaxed)) * 1e-9;
  return c;
}

IoStats kernel_cost(std::int64_t r, std::int64_t k, std::int64_t c) {
  // Every backend executes the classic 2·r·k·c flops.
  IoStats io;
  io.mults = static_cast<std::uint64_t>(r) * static_cast<std::uint64_t>(k) *
             static_cast<std::uint64_t>(c);
  io.adds = io.mults;
  return io;
}

namespace detail {

Backend resolve(Backend backend) {
  if (backend == Backend::kSimd && !simd_supported()) return Backend::kTiled;
  return backend;
}

void gemm_naive(GemmMode mode, std::int64_t m, std::int64_t n, std::int64_t k,
                const double* a, std::int64_t lda, const double* b,
                std::int64_t ldb, double* c, std::int64_t ldc) {
  // Textbook ijk: the inner k loop strides down a column of B — the §6.3
  // ablation's cache-hostile baseline, kept exactly this slow on purpose.
  for (std::int64_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::int64_t p = 0; p < k; ++p) sum += ai[p] * b[p * ldb + j];
      switch (mode) {
        case GemmMode::kAssign: ci[j] = sum; break;
        case GemmMode::kAccumulate: ci[j] += sum; break;
        case GemmMode::kSubtract: ci[j] -= sum; break;
      }
    }
  }
}

void gemm_bt_naive(GemmMode mode, std::int64_t m, std::int64_t n,
                   std::int64_t k, const double* a, std::int64_t lda,
                   const double* bt, std::int64_t ldbt, double* c,
                   std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j) {
      const double* btj = bt + j * ldbt;
      double sum = 0.0;
      for (std::int64_t p = 0; p < k; ++p) sum += ai[p] * btj[p];
      switch (mode) {
        case GemmMode::kAssign: ci[j] = sum; break;
        case GemmMode::kAccumulate: ci[j] += sum; break;
        case GemmMode::kSubtract: ci[j] -= sum; break;
      }
    }
  }
}

void dispatch_gemm(Backend backend, int threads, GemmMode mode, std::int64_t m,
                   std::int64_t n, std::int64_t k, const double* a,
                   std::int64_t lda, const double* b, std::int64_t ldb,
                   double* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Degenerate product is all zeros; only kAssign has visible effect.
    if (mode == GemmMode::kAssign) {
      for (std::int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0);
      }
    }
    return;
  }
  switch (resolve(backend)) {
    case Backend::kNaive:
      gemm_naive(mode, m, n, k, a, lda, b, ldb, c, ldc);
      break;
    case Backend::kTiled:
      gemm_tiled(mode, m, n, k, a, lda, b, ldb, c, ldc);
      break;
    case Backend::kSimd:
      gemm_simd(mode, m, n, k, a, lda, b, ldb, c, ldc);
      break;
    case Backend::kThreaded:
      gemm_threaded(resolve(Backend::kSimd), threads, mode, m, n, k, a, lda, b,
                    ldb, c, ldc);
      break;
  }
}

void dispatch_gemm_bt(Backend backend, int threads, GemmMode mode,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      const double* a, std::int64_t lda, const double* bt,
                      std::int64_t ldbt, double* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (mode == GemmMode::kAssign) {
      for (std::int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0);
      }
    }
    return;
  }
  switch (resolve(backend)) {
    case Backend::kNaive:
      gemm_bt_naive(mode, m, n, k, a, lda, bt, ldbt, c, ldc);
      break;
    case Backend::kTiled:
      gemm_bt_tiled(mode, m, n, k, a, lda, bt, ldbt, c, ldc);
      break;
    case Backend::kSimd:
      gemm_bt_simd(mode, m, n, k, a, lda, bt, ldbt, c, ldc);
      break;
    case Backend::kThreaded:
      gemm_bt_threaded(resolve(Backend::kSimd), threads, mode, m, n, k, a, lda,
                       bt, ldbt, c, ldc);
      break;
  }
}

}  // namespace detail

void KernelContext::gemm(GemmMode mode, std::int64_t m, std::int64_t n,
                         std::int64_t k, const double* a, std::int64_t lda,
                         const double* b, std::int64_t ldb, double* c,
                         std::int64_t ldc) const {
  ScopedKernelTimer timer;
  g_gemm_calls.fetch_add(1, std::memory_order_relaxed);
  g_flops.fetch_add(2ull * static_cast<std::uint64_t>(std::max<std::int64_t>(
                               m, 0)) *
                        static_cast<std::uint64_t>(std::max<std::int64_t>(n,
                                                                          0)) *
                        static_cast<std::uint64_t>(std::max<std::int64_t>(k,
                                                                          0)),
                    std::memory_order_relaxed);
  detail::dispatch_gemm(backend, threads, mode, m, n, k, a, lda, b, ldb, c,
                        ldc);
}

void KernelContext::gemm_bt(GemmMode mode, std::int64_t m, std::int64_t n,
                            std::int64_t k, const double* a, std::int64_t lda,
                            const double* bt, std::int64_t ldbt, double* c,
                            std::int64_t ldc) const {
  ScopedKernelTimer timer;
  g_gemm_calls.fetch_add(1, std::memory_order_relaxed);
  g_flops.fetch_add(2ull * static_cast<std::uint64_t>(std::max<std::int64_t>(
                               m, 0)) *
                        static_cast<std::uint64_t>(std::max<std::int64_t>(n,
                                                                          0)) *
                        static_cast<std::uint64_t>(std::max<std::int64_t>(k,
                                                                          0)),
                    std::memory_order_relaxed);
  detail::dispatch_gemm_bt(backend, threads, mode, m, n, k, a, lda, bt, ldbt,
                           c, ldc);
}

void KernelContext::trsm_lower_left(bool unit_diag, std::int64_t m,
                                    std::int64_t n, const double* l,
                                    std::int64_t ldl, double* b,
                                    std::int64_t ldb) const {
  if (m <= 0 || n <= 0) return;
  ScopedKernelTimer timer;
  g_trsm_calls.fetch_add(1, std::memory_order_relaxed);

  // Staircase: column j of X is zero above the first nonzero row of column
  // j of B, so those rows need no work. first[j] is that row (m when the
  // column is all zero); width[r] is one past the last column with a nonzero
  // in rows < r, so every column from width[r] on is still zero above row r.
  // When first rows ascend with the column index (Eq. 4's identity columns)
  // the prefix [0, width[r]) is exactly the columns that can be nonzero; for
  // a dense B it is all n columns from row 0 on.
  const auto un = static_cast<std::size_t>(n);
  std::vector<std::int64_t> first(un, m);
  std::size_t unresolved = un;
  for (std::int64_t i = 0; i < m && unresolved > 0; ++i) {
    const double* bi = b + i * ldb;
    for (std::size_t j = 0; j < un; ++j) {
      if (first[j] == m && bi[j] != 0.0) {
        first[j] = i;
        --unresolved;
      }
    }
  }
  std::vector<std::int64_t> width(static_cast<std::size_t>(m) + 1, 0);
  std::uint64_t flops = 0;
  for (std::size_t j = 0; j < un; ++j) {
    if (first[j] == m) continue;
    const auto rows = static_cast<std::uint64_t>(m - first[j]);
    flops += rows * rows;
    auto& w = width[static_cast<std::size_t>(first[j]) + 1];
    w = std::max(w, static_cast<std::int64_t>(j) + 1);
  }
  for (std::size_t r = 1; r < width.size(); ++r) {
    width[r] = std::max(width[r], width[r - 1]);
  }
  g_flops.fetch_add(flops, std::memory_order_relaxed);

  const Backend resolved = detail::resolve(backend);
  // Naive keeps the historical unblocked substitution (the ablation
  // baseline); every other backend runs the blocked algorithm whose bulk is
  // GEMM trailing updates. On AVX-512 CPUs the SIMD and threaded backends
  // run each diagonal block on vector strips, with the scalar loop's bits.
  const std::int64_t nb = resolved == Backend::kNaive ? m : detail::kTrsmBlock;
  const bool vector_block =
      (resolved == Backend::kSimd || resolved == Backend::kThreaded) &&
      detail::simd_isa() == detail::SimdIsa::kAvx512;
  for (std::int64_t d0 = 0; d0 < m; d0 += nb) {
    const std::int64_t d1 = std::min<std::int64_t>(d0 + nb, m);
    if (vector_block) {
      detail::trsm_lower_block_avx512(unit_diag, d0, d1, width.data(), l, ldl,
                                      b, ldb);
    } else {
      trsm_lower_block(unit_diag, d0, d1, width.data(), l, ldl, b, ldb);
    }
    const std::int64_t cols = width[static_cast<std::size_t>(d1)];
    if (d1 < m && cols > 0) {
      detail::dispatch_gemm(resolved, threads, GemmMode::kSubtract, m - d1,
                            cols, d1 - d0, l + d1 * ldl + d0, ldl,
                            b + d0 * ldb, ldb, b + d1 * ldb, ldb);
    }
  }
}

}  // namespace mri::kernels

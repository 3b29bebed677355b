// Hardware-speed dense kernels behind one dispatch seam.
//
// Every dense GEMM/TRSM in the repo funnels through KernelContext instead of
// hand-rolled loop variants scattered per call site. A kernel *backend* is a
// runtime-selected implementation of the same arithmetic:
//
//   kNaive    — textbook ijk dot-product order (the §6.3 ablation baseline:
//               walks columns of B, pays the page/TLB penalty);
//   kTiled    — cache-blocked ikj with unit-stride inner loops, written so
//               the compiler auto-vectorizes them on any target;
//   kSimd     — AVX2+FMA register-blocked microkernel (4x8 accumulator
//               tile), compiled with per-function target attributes and
//               selected only when the CPU reports the features at runtime
//               (falls back to kTiled elsewhere);
//   kThreaded — row-partitioned std::thread fan-out over the best serial
//               backend, for intra-task parallelism; each row is computed by
//               the same serial kernel, so results are bitwise identical to
//               the serial run.
//
// Backends differ in speed, not in modelled arithmetic: kernel_cost() is
// backend-independent, so simulated IoStats/report accounting stays
// bit-identical no matter which backend executed the flops. Different
// backends may round differently (summation order); tests compare across
// backends with tolerances but require every backend to be individually
// deterministic.
//
// Process-global KernelCounters record calls, modelled flops and wall-clock
// seconds per backend; snapshot deltas give per-run kernel identity and
// achieved GFLOP/s for RunReport and CostModel calibration. The wall-clock
// fields are the only non-deterministic numbers and are kept out of the
// report JSON.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/io_stats.hpp"

namespace mri::kernels {

enum class Backend { kNaive, kTiled, kSimd, kThreaded };

/// Stable lowercase name ("naive", "tiled", "simd", "threaded").
const char* backend_name(Backend backend);

/// Parses a backend name; returns false (and leaves *out alone) on unknown
/// input.
bool parse_backend(std::string_view name, Backend* out);

/// True when the backend can run on this machine (kSimd requires AVX2+FMA;
/// everything else is always available).
bool backend_available(Backend backend);

/// The process-wide default backend used by default-constructed
/// KernelContexts: the MRI_KERNEL_BACKEND env var when set to a valid name,
/// else kSimd when the CPU supports it, else kTiled. set_default_backend()
/// overrides it for the process (CLI flag plumbing).
Backend default_backend();
void set_default_backend(Backend backend);

/// Process-global kernel activity counters (monotone; snapshot two and
/// subtract for a per-run delta). `flops` is the modelled 2·m·n·k GEMM /
/// Σ_j (m − first_j)² TRSM count, identical across backends; `seconds` is wall-clock spent inside
/// kernel calls and is NOT deterministic — keep it out of simulated reports.
struct KernelCounters {
  std::uint64_t gemm_calls = 0;
  std::uint64_t trsm_calls = 0;
  std::uint64_t flops = 0;
  double seconds = 0.0;

  KernelCounters operator-(const KernelCounters& other) const {
    KernelCounters d;
    d.gemm_calls = gemm_calls - other.gemm_calls;
    d.trsm_calls = trsm_calls - other.trsm_calls;
    d.flops = flops - other.flops;
    d.seconds = seconds - other.seconds;
    return d;
  }

  /// Achieved GFLOP/s over the counted interval (0 when no time elapsed).
  double gflops() const {
    return seconds > 0.0 ? static_cast<double>(flops) / seconds * 1e-9 : 0.0;
  }
};

/// Snapshot of the process-global counters.
KernelCounters counters_snapshot();

/// How gemm()/gemm_bt() combine the product with C.
enum class GemmMode { kAssign, kAccumulate, kSubtract };

/// Dispatch handle: one backend selection threaded through a computation.
/// Operates on raw row-major buffers with leading dimensions so callers can
/// address sub-blocks of larger matrices without copies.
struct KernelContext {
  Backend backend = default_backend();
  /// kThreaded only: worker count (0 = hardware_concurrency, min 1).
  int threads = 0;

  /// C (m x n) =|+=|-= A (m x k) · B (k x n).
  void gemm(GemmMode mode, std::int64_t m, std::int64_t n, std::int64_t k,
            const double* a, std::int64_t lda, const double* b,
            std::int64_t ldb, double* c, std::int64_t ldc) const;

  /// C (m x n) =|+=|-= A (m x k) · Bᵀ, where bt (n x k) holds B transposed
  /// row-major (row j of bt is column j of B) — the §6.3 transposed-U layout.
  void gemm_bt(GemmMode mode, std::int64_t m, std::int64_t n, std::int64_t k,
               const double* a, std::int64_t lda, const double* bt,
               std::int64_t ldbt, double* c, std::int64_t ldc) const;

  /// In-place left solve L · X = B: b (m x n) becomes X, with l (m x m)
  /// lower triangular (`unit_diag` skips the diagonal division). Blocked:
  /// small diagonal-block substitutions plus GEMM trailing updates. Both
  /// skip the rows above each column's first nonzero row in B, where X
  /// stays exactly zero (the staircase: with first rows ascending across
  /// the columns, e.g. identity columns for Eq. 4, every skipped entry is a
  /// zero). Counts Σ_j (m − first_j)² flops, m²·n for a dense B.
  void trsm_lower_left(bool unit_diag, std::int64_t m, std::int64_t n,
                       const double* l, std::int64_t ldl, double* b,
                       std::int64_t ldb) const;

  /// In-place right solve X · U = B: b (m x n) becomes X, with ut (n x n)
  /// holding Uᵀ row-major (row j of ut is column j of U, diagonal included,
  /// non-unit). Blocked with gemm_bt trailing updates so the hot path
  /// streams ut rows, matching the paper's transposed-U storage argument.
  void trsm_upper_right_from_transpose(std::int64_t m, std::int64_t n,
                                       const double* ut, std::int64_t ldut,
                                       double* b, std::int64_t ldb) const;
};

/// Modelled flop cost of a dense (r x k) · (k x c) multiply. The same for
/// every backend — tiling and vectorization change speed, not arithmetic —
/// so simulated reports stay bit-identical across backend selections.
IoStats kernel_cost(std::int64_t r, std::int64_t k, std::int64_t c);

}  // namespace mri::kernels

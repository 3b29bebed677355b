// Internal backend entry points behind KernelContext. Each gemm_* computes
// the same C op= A·B (or A·Bᵀ) contract as KernelContext::gemm/gemm_bt on
// raw row-major buffers; none of them touch the process-global counters —
// counting and timing happen once at the public dispatch layer so a blocked
// TRSM's internal trailing-update GEMMs are not double-billed.
#pragma once

#include "linalg/kernels/kernel.hpp"

namespace mri::kernels::detail {

/// True when the CPU supports the AVX2+FMA microkernel.
bool simd_supported();

/// The instruction sets the SIMD backend has a microkernel for. Both give
/// the same bits (simd.cpp's bit contract); only the speed differs.
enum class SimdIsa { kAvx2, kAvx512 };

/// True when this CPU can run `isa`'s path.
bool isa_supported(SimdIsa isa);

/// The path gemm_simd and gemm_bt_simd take here, picked once: kAvx512
/// where the CPU has AVX-512F, else kAvx2 (which needs simd_supported()).
SimdIsa simd_isa();

/// "avx512 8x16" or "avx2 6x8": the ISA and the microkernel's tile.
const char* isa_name(SimdIsa isa);

/// Maps a requested backend to one that can execute here: kSimd degrades to
/// kTiled on CPUs without AVX2+FMA; kThreaded resolves its serial worker
/// backend the same way.
Backend resolve(Backend backend);

void gemm_naive(GemmMode mode, std::int64_t m, std::int64_t n, std::int64_t k,
                const double* a, std::int64_t lda, const double* b,
                std::int64_t ldb, double* c, std::int64_t ldc);
void gemm_tiled(GemmMode mode, std::int64_t m, std::int64_t n, std::int64_t k,
                const double* a, std::int64_t lda, const double* b,
                std::int64_t ldb, double* c, std::int64_t ldc);
/// Requires simd_supported(); the packed GEMM on simd_isa()'s microkernel.
void gemm_simd(GemmMode mode, std::int64_t m, std::int64_t n, std::int64_t k,
               const double* a, std::int64_t lda, const double* b,
               std::int64_t ldb, double* c, std::int64_t ldc);
/// Row-partitioned std::thread fan-out over `serial` (kTiled or kSimd). A
/// row's result does not depend on which rows share its call, so any split
/// is bitwise identical to the serial backend.
void gemm_threaded(Backend serial, int threads, GemmMode mode, std::int64_t m,
                   std::int64_t n, std::int64_t k, const double* a,
                   std::int64_t lda, const double* b, std::int64_t ldb,
                   double* c, std::int64_t ldc);

void gemm_bt_naive(GemmMode mode, std::int64_t m, std::int64_t n,
                   std::int64_t k, const double* a, std::int64_t lda,
                   const double* bt, std::int64_t ldbt, double* c,
                   std::int64_t ldc);
void gemm_bt_tiled(GemmMode mode, std::int64_t m, std::int64_t n,
                   std::int64_t k, const double* a, std::int64_t lda,
                   const double* bt, std::int64_t ldbt, double* c,
                   std::int64_t ldc);
void gemm_bt_simd(GemmMode mode, std::int64_t m, std::int64_t n,
                  std::int64_t k, const double* a, std::int64_t lda,
                  const double* bt, std::int64_t ldbt, double* c,
                  std::int64_t ldc);
void gemm_bt_threaded(Backend serial, int threads, GemmMode mode,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      const double* a, std::int64_t lda, const double* bt,
                      std::int64_t ldbt, double* c, std::int64_t ldc);

/// Test-only: gemm_simd / gemm_bt_simd on a chosen path. Requires
/// isa_supported(isa).
void gemm_simd_on(SimdIsa isa, GemmMode mode, std::int64_t m, std::int64_t n,
                  std::int64_t k, const double* a, std::int64_t lda,
                  const double* b, std::int64_t ldb, double* c,
                  std::int64_t ldc);
void gemm_bt_simd_on(SimdIsa isa, GemmMode mode, std::int64_t m,
                     std::int64_t n, std::int64_t k, const double* a,
                     std::int64_t lda, const double* bt, std::int64_t ldbt,
                     double* c, std::int64_t ldc);

/// Diagonal block size of trsm_lower_left. trsm_lower_block_avx512 sizes
/// its strip buffer by it.
inline constexpr std::int64_t kTrsmBlock = 64;

/// The substitution inside trsm_lower_left's diagonal block [d0, d1), on
/// AVX-512 strips: row i of b, over columns [0, width[i + 1]), loses
/// l[i][p]·x[p] for p in [d0, i) ascending (skipping zero l[i][p]), then is
/// divided through by l[i][i] unless `unit_diag`. The same bits as the
/// scalar loop. Requires isa_supported(SimdIsa::kAvx512) and
/// d1 - d0 <= kTrsmBlock.
void trsm_lower_block_avx512(bool unit_diag, std::int64_t d0,
                             std::int64_t d1, const std::int64_t* width,
                             const double* l, std::int64_t ldl, double* b,
                             std::int64_t ldb);

/// Counter-free dispatch (public KernelContext methods and blocked TRSM
/// trailing updates route here).
void dispatch_gemm(Backend backend, int threads, GemmMode mode, std::int64_t m,
                   std::int64_t n, std::int64_t k, const double* a,
                   std::int64_t lda, const double* b, std::int64_t ldb,
                   double* c, std::int64_t ldc);
void dispatch_gemm_bt(Backend backend, int threads, GemmMode mode,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      const double* a, std::int64_t lda, const double* bt,
                      std::int64_t ldbt, double* c, std::int64_t ldc);

}  // namespace mri::kernels::detail

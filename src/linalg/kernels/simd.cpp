// The SIMD backend: one packed GEMM for every shape, and the AVX-512
// diagonal block of the blocked lower TRSM.
//
// Three parts do the GEMM. A packing layer copies each 256-deep panel of B
// (or of Bᵀ's rows, for gemm_bt) into zero-padded NR-column slivers, and
// each MR rows of A into a padded-stride buffer. One blocking loop walks the
// panels. One register-blocked microkernel, picked once at runtime, does
// the arithmetic: AVX-512 8x16 where the CPU has AVX-512F, else AVX2+FMA
// 6x8. Both are compiled with per-function target attributes (the
// translation unit needs no -m flag, so the binary runs on any x86-64);
// non-x86 builds and CPUs without AVX2+FMA fall back to the tiled backend.
//
// Bit contract: each element of C has one fixed computation, whatever the
// vector width or its place in a tile. For each 256-deep block of the depth,
// in ascending order, acc = 0, then acc = fma(a[i][p], b[p][j], acc) over p
// ascending; C is assigned the first block's sum (kAssign) or has it added
// or subtracted, and every later block's sum is added (kAssign,
// kAccumulate) or subtracted (kSubtract). So both ISA paths and a scalar
// std::fma loop in that order agree byte for byte, gemm_bt(A, Bᵀ) equals
// gemm(A, B), and any row split of the threaded backend equals the serial
// run.
#include <algorithm>
#include <cstddef>
#include <new>

#include "common/error.hpp"
#include "linalg/kernels/detail.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MRI_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace mri::kernels::detail {

const char* isa_name(SimdIsa isa) {
  return isa == SimdIsa::kAvx512 ? "avx512 8x16" : "avx2 6x8";
}

#ifdef MRI_KERNELS_X86

namespace {

constexpr std::int64_t kKc = 256;  // depth per block: fixes the sum order
constexpr std::int64_t kNc = 256;  // columns per packed B panel (in L2)
constexpr std::int64_t kMaxMr = 8;  // the tallest microkernel's rows
// Copied A row stride: the padding keeps the rows off a shared L1 set.
constexpr std::int64_t kAStride = kKc + 8;

// How a microkernel's sum lands in C. kAssign over several depth blocks
// becomes kStore for the first block and kAdd for the rest.
enum class StoreOp { kStore, kAdd, kSub };

StoreOp store_op(GemmMode mode, bool first_depth_block) {
  switch (mode) {
    case GemmMode::kAssign:
      return first_depth_block ? StoreOp::kStore : StoreOp::kAdd;
    case GemmMode::kAccumulate: return StoreOp::kAdd;
    case GemmMode::kSubtract: return StoreOp::kSub;
  }
  return StoreOp::kAdd;
}

// One thread's pack buffers: a kKc x kNc B panel and the rows of A one
// microkernel call reads, in one fixed 64-byte-aligned allocation made on
// the thread's first GEMM and never grown (about 0.5 MiB).
class PackBuffer {
 public:
  static constexpr std::size_t kBDoubles = kKc * kNc;
  static constexpr std::size_t kDoubles = kBDoubles + kMaxMr * kAStride;
  static constexpr std::align_val_t kAlign{64};

  PackBuffer()
      : data_(static_cast<double*>(
            ::operator new(kDoubles * sizeof(double), kAlign))) {}
  ~PackBuffer() { ::operator delete(data_, kAlign); }
  PackBuffer(const PackBuffer&) = delete;
  PackBuffer& operator=(const PackBuffer&) = delete;

  double* b() { return data_; }
  double* a() { return data_ + kBDoubles; }

 private:
  double* data_;
};

PackBuffer& thread_pack_buffer() {
  thread_local PackBuffer buffer;
  return buffer;
}

// C[0:rows, 0:cols] op= A[0:rows, 0:kc] · Bp, where Bp is one packed kc x NR
// sliver and rows <= MR, cols <= NR. Rows past `rows` re-read the last valid
// row of A; their sums are never stored.
using Microkernel = void (*)(std::int64_t kc, const double* a,
                             std::int64_t lda, const double* bp, double* c,
                             std::int64_t ldc, std::int64_t rows,
                             std::int64_t cols, StoreOp op);

struct IsaPath {
  std::int64_t mr;
  std::int64_t nr;
  Microkernel kernel;
};

__attribute__((target("avx512f"))) __mmask8 lane_mask(std::int64_t lanes) {
  if (lanes >= 8) return 0xFF;
  return lanes <= 0 ? 0 : static_cast<__mmask8>((1u << lanes) - 1u);
}

__attribute__((target("avx512f"))) void kernel_avx512_8x16(
    std::int64_t kc, const double* a, std::int64_t lda, const double* bp,
    double* c, std::int64_t ldc, std::int64_t rows, std::int64_t cols,
    StoreOp op) {
  const double* ar[8];
  for (std::int64_t r = 0; r < 8; ++r) {
    ar[r] = a + std::min<std::int64_t>(r, rows - 1) * lda;
  }
  // Start C's tile towards L1 while the depth loop runs: its rows sit ldc
  // apart, often a page each, past what the hardware prefetcher follows.
  for (std::int64_t r = 0; r < rows; ++r) {
    _mm_prefetch(reinterpret_cast<const char*>(c + r * ldc), _MM_HINT_T0);
    if (cols > 8) {
      _mm_prefetch(reinterpret_cast<const char*>(c + r * ldc + 8),
                   _MM_HINT_T0);
    }
  }
  __m512d acc[8][2];
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) acc[r][0] = acc[r][1] = _mm512_setzero_pd();
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m512d b0 = _mm512_loadu_pd(bp + p * 16);
    const __m512d b1 = _mm512_loadu_pd(bp + p * 16 + 8);
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r) {
      const __m512d av = _mm512_set1_pd(ar[r][p]);
      acc[r][0] = _mm512_fmadd_pd(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_pd(av, b1, acc[r][1]);
    }
  }
  const __mmask8 mask[2] = {lane_mask(cols), lane_mask(cols - 8)};
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) {
    if (r >= rows) break;
#pragma GCC unroll 2
    for (int h = 0; h < 2; ++h) {
      double* ch = c + r * ldc + 8 * h;
      __m512d v = acc[r][h];
      if (op == StoreOp::kAdd) {
        v = _mm512_add_pd(_mm512_maskz_loadu_pd(mask[h], ch), v);
      } else if (op == StoreOp::kSub) {
        v = _mm512_sub_pd(_mm512_maskz_loadu_pd(mask[h], ch), v);
      }
      _mm512_mask_storeu_pd(ch, mask[h], v);
    }
  }
}

__attribute__((target("avx2,fma"))) void kernel_avx2_6x8(
    std::int64_t kc, const double* a, std::int64_t lda, const double* bp,
    double* c, std::int64_t ldc, std::int64_t rows, std::int64_t cols,
    StoreOp op) {
  const double* ar[6];
  for (std::int64_t r = 0; r < 6; ++r) {
    ar[r] = a + std::min<std::int64_t>(r, rows - 1) * lda;
  }
  __m256d acc[6][2];
#pragma GCC unroll 6
  for (int r = 0; r < 6; ++r) acc[r][0] = acc[r][1] = _mm256_setzero_pd();
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(bp + p * 8);
    const __m256d b1 = _mm256_loadu_pd(bp + p * 8 + 4);
#pragma GCC unroll 6
    for (int r = 0; r < 6; ++r) {
      const __m256d av = _mm256_broadcast_sd(ar[r] + p);
      acc[r][0] = _mm256_fmadd_pd(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(av, b1, acc[r][1]);
    }
  }
  if (rows == 6 && cols == 8) {
#pragma GCC unroll 6
    for (int r = 0; r < 6; ++r) {
#pragma GCC unroll 2
      for (int h = 0; h < 2; ++h) {
        double* ch = c + r * ldc + 4 * h;
        __m256d v = acc[r][h];
        if (op == StoreOp::kAdd) {
          v = _mm256_add_pd(_mm256_loadu_pd(ch), v);
        } else if (op == StoreOp::kSub) {
          v = _mm256_sub_pd(_mm256_loadu_pd(ch), v);
        }
        _mm256_storeu_pd(ch, v);
      }
    }
    return;
  }
  // Edge tile: spill to the stack, then store the valid part element-wise
  // (the same IEEE add/subtract as the vector path).
  alignas(32) double tile[6][8];
#pragma GCC unroll 6
  for (int r = 0; r < 6; ++r) {
    _mm256_store_pd(tile[r], acc[r][0]);
    _mm256_store_pd(tile[r] + 4, acc[r][1]);
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    double* cr = c + r * ldc;
    for (std::int64_t j = 0; j < cols; ++j) {
      switch (op) {
        case StoreOp::kStore: cr[j] = tile[r][j]; break;
        case StoreOp::kAdd: cr[j] += tile[r][j]; break;
        case StoreOp::kSub: cr[j] -= tile[r][j]; break;
      }
    }
  }
}

constexpr IsaPath kAvx512Path{8, 16, kernel_avx512_8x16};
constexpr IsaPath kAvx2Path{6, 8, kernel_avx2_6x8};

const IsaPath& isa_path(SimdIsa isa) {
  return isa == SimdIsa::kAvx512 ? kAvx512Path : kAvx2Path;
}

// Packs B[pc:pc+kc, jc:jc+nc] into NR-column slivers, each kc x NR row-major
// and zero-padded past column nc; sliver s starts at dst + s·NR·kc.
void pack_b(const double* b, std::int64_t ldb, std::int64_t jc,
            std::int64_t nc, std::int64_t pc, std::int64_t kc,
            std::int64_t nr, double* dst) {
  for (std::int64_t jr = 0; jr < nc; jr += nr, dst += nr * kc) {
    const std::int64_t w = std::min(nr, nc - jr);
    const double* src = b + pc * ldb + jc + jr;
    for (std::int64_t p = 0; p < kc; ++p) {
      std::copy(src + p * ldb, src + p * ldb + w, dst + p * nr);
      std::fill(dst + p * nr + w, dst + (p + 1) * nr, 0.0);
    }
  }
}

// The same slivers from rows of Bᵀ: column j of B is row j of bt.
void pack_bt(const double* bt, std::int64_t ldbt, std::int64_t jc,
             std::int64_t nc, std::int64_t pc, std::int64_t kc,
             std::int64_t nr, double* dst) {
  for (std::int64_t jr = 0; jr < nc; jr += nr, dst += nr * kc) {
    const std::int64_t w = std::min(nr, nc - jr);
    for (std::int64_t j = 0; j < nr; ++j) {
      if (j < w) {
        const double* src = bt + (jc + jr + j) * ldbt + pc;
        for (std::int64_t p = 0; p < kc; ++p) dst[p * nr + j] = src[p];
      } else {
        for (std::int64_t p = 0; p < kc; ++p) dst[p * nr + j] = 0.0;
      }
    }
  }
}

// The blocking loop: for each kNc-column, kKc-deep panel, pack B; then copy
// each MR rows of A and run the microkernel across the panel's slivers, so
// those rows stay in L1 while the slivers stream from L2.
template <typename PackB>
void gemm_packed(SimdIsa isa, GemmMode mode, std::int64_t m, std::int64_t n,
                 std::int64_t k, const double* a, std::int64_t lda, double* c,
                 std::int64_t ldc, PackB pack) {
  const IsaPath& path = isa_path(isa);
  PackBuffer& buffer = thread_pack_buffer();
  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t nc = std::min(kNc, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
      const std::int64_t kc = std::min(kKc, k - pc);
      pack(jc, nc, pc, kc, path.nr, buffer.b());
      const StoreOp op = store_op(mode, pc == 0);
      for (std::int64_t ir = 0; ir < m; ir += path.mr) {
        const std::int64_t rows = std::min(path.mr, m - ir);
        for (std::int64_t i = 0; i < rows; ++i) {
          const double* src = a + (ir + i) * lda + pc;
          std::copy(src, src + kc, buffer.a() + i * kAStride);
        }
        for (std::int64_t jr = 0; jr < nc; jr += path.nr) {
          path.kernel(kc, buffer.a(), kAStride, buffer.b() + jr * kc,
                      c + ir * ldc + jc + jr, ldc, rows,
                      std::min(path.nr, nc - jr), op);
        }
      }
    }
  }
}

// The diagonal block [d0, d1) of trsm_lower_left on AVX-512 strips: row i,
// over columns [0, width[i + 1]), loses l[i][p]·x[p] for p in [d0, i)
// ascending — one multiply, then one subtract, skipping zero l[i][p] — and
// is then scaled by 1 / l[i][i]. That is the scalar loop's arithmetic
// element by element (the target's -ffp-contract=off keeps the multiply and
// subtract unfused), so both give the same bits.
//
// Each 32-column strip of the block is copied into a contiguous buffer
// first: rows of b sit ldb apart, and at a power-of-two ldb a strip's rows
// share a few L1 sets. A row's strip then stays in registers across p. Only
// a strip that ends past the row's width loads and stores through masks, so
// full strips keep the mask registers out of the p loop.
constexpr std::int64_t kStrip = 32;

// Row r of the strip buffer s (kStrip doubles per row), over its first
// `cols` columns: s[r] -= lrow[p]·s[p] for p in [0, r), then s[r] /= lrow[r].
template <bool kMasked>
__attribute__((target("avx512f"))) inline void trsm_strip_row(
    bool unit_diag, std::int64_t r, std::int64_t cols, const double* lrow,
    double* s) {
  __mmask8 mask[4];
  __m512d x[4];
  double* sr = s + r * kStrip;
#pragma GCC unroll 4
  for (int q = 0; q < 4; ++q) {
    mask[q] = lane_mask(cols - 8 * q);
    x[q] = kMasked ? _mm512_maskz_loadu_pd(mask[q], sr + 8 * q)
                   : _mm512_load_pd(sr + 8 * q);
  }
  for (std::int64_t p = 0; p < r; ++p) {
    if (lrow[p] == 0.0) continue;  // triangular operands are half zeros
    const __m512d lp = _mm512_set1_pd(lrow[p]);
    const double* sp = s + p * kStrip;
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      const __m512d v = kMasked ? _mm512_maskz_loadu_pd(mask[q], sp + 8 * q)
                                : _mm512_load_pd(sp + 8 * q);
      x[q] = _mm512_sub_pd(x[q], _mm512_mul_pd(lp, v));
    }
  }
  if (!unit_diag) {
    const __m512d inv_d = _mm512_set1_pd(1.0 / lrow[r]);
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) x[q] = _mm512_mul_pd(x[q], inv_d);
  }
#pragma GCC unroll 4
  for (int q = 0; q < 4; ++q) {
    if (kMasked) {
      _mm512_mask_storeu_pd(sr + 8 * q, mask[q], x[q]);
    } else {
      _mm512_store_pd(sr + 8 * q, x[q]);
    }
  }
}

__attribute__((target("avx512f"))) void trsm_row(bool unit_diag,
                                                 std::int64_t r,
                                                 std::int64_t cols,
                                                 const double* lrow,
                                                 double* s) {
  if (cols < kStrip) {
    trsm_strip_row<true>(unit_diag, r, cols, lrow, s);
  } else {
    trsm_strip_row<false>(unit_diag, r, cols, lrow, s);
  }
}

}  // namespace

bool simd_supported() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}

bool isa_supported(SimdIsa isa) {
  static const bool avx512 = __builtin_cpu_supports("avx512f");
  return isa == SimdIsa::kAvx512 ? avx512 : simd_supported();
}

SimdIsa simd_isa() {
  return isa_supported(SimdIsa::kAvx512) ? SimdIsa::kAvx512 : SimdIsa::kAvx2;
}

void gemm_simd_on(SimdIsa isa, GemmMode mode, std::int64_t m, std::int64_t n,
                  std::int64_t k, const double* a, std::int64_t lda,
                  const double* b, std::int64_t ldb, double* c,
                  std::int64_t ldc) {
  gemm_packed(isa, mode, m, n, k, a, lda, c, ldc,
              [=](std::int64_t jc, std::int64_t nc, std::int64_t pc,
                  std::int64_t kc, std::int64_t nr, double* dst) {
                pack_b(b, ldb, jc, nc, pc, kc, nr, dst);
              });
}

void gemm_bt_simd_on(SimdIsa isa, GemmMode mode, std::int64_t m,
                     std::int64_t n, std::int64_t k, const double* a,
                     std::int64_t lda, const double* bt, std::int64_t ldbt,
                     double* c, std::int64_t ldc) {
  gemm_packed(isa, mode, m, n, k, a, lda, c, ldc,
              [=](std::int64_t jc, std::int64_t nc, std::int64_t pc,
                  std::int64_t kc, std::int64_t nr, double* dst) {
                pack_bt(bt, ldbt, jc, nc, pc, kc, nr, dst);
              });
}

void trsm_lower_block_avx512(bool unit_diag, std::int64_t d0,
                             std::int64_t d1, const std::int64_t* width,
                             const double* l, std::int64_t ldl, double* b,
                             std::int64_t ldb) {
  MRI_REQUIRE(d1 - d0 <= kTrsmBlock, "TRSM diagonal block too tall");
  alignas(64) double s[kTrsmBlock * kStrip];
  for (std::int64_t j0 = 0; j0 < width[d1]; j0 += kStrip) {
    const std::int64_t w = std::min(kStrip, width[d1] - j0);
    for (std::int64_t i = d0; i < d1; ++i) {
      std::copy(b + i * ldb + j0, b + i * ldb + j0 + w, s + (i - d0) * kStrip);
    }
    for (std::int64_t i = d0; i < d1; ++i) {
      const std::int64_t cols = std::min(width[i + 1] - j0, kStrip);
      if (cols > 0) trsm_row(unit_diag, i - d0, cols, l + i * ldl + d0, s);
    }
    for (std::int64_t i = d0; i < d1; ++i) {
      const std::int64_t cols = std::min(width[i + 1] - j0, kStrip);
      if (cols > 0) {
        std::copy(s + (i - d0) * kStrip, s + (i - d0) * kStrip + cols,
                  b + i * ldb + j0);
      }
    }
  }
}

#else  // !MRI_KERNELS_X86

bool simd_supported() { return false; }

bool isa_supported(SimdIsa) { return false; }

SimdIsa simd_isa() { return SimdIsa::kAvx2; }

void gemm_simd_on(SimdIsa, GemmMode mode, std::int64_t m, std::int64_t n,
                  std::int64_t k, const double* a, std::int64_t lda,
                  const double* b, std::int64_t ldb, double* c,
                  std::int64_t ldc) {
  gemm_tiled(mode, m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_bt_simd_on(SimdIsa, GemmMode mode, std::int64_t m, std::int64_t n,
                     std::int64_t k, const double* a, std::int64_t lda,
                     const double* bt, std::int64_t ldbt, double* c,
                     std::int64_t ldc) {
  gemm_bt_tiled(mode, m, n, k, a, lda, bt, ldbt, c, ldc);
}

void trsm_lower_block_avx512(bool, std::int64_t, std::int64_t,
                             const std::int64_t*, const double*, std::int64_t,
                             double*, std::int64_t) {
  MRI_REQUIRE(false, "the AVX-512 TRSM block needs an x86 build");
}

#endif  // MRI_KERNELS_X86

void gemm_simd(GemmMode mode, std::int64_t m, std::int64_t n, std::int64_t k,
               const double* a, std::int64_t lda, const double* b,
               std::int64_t ldb, double* c, std::int64_t ldc) {
  gemm_simd_on(simd_isa(), mode, m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_bt_simd(GemmMode mode, std::int64_t m, std::int64_t n,
                  std::int64_t k, const double* a, std::int64_t lda,
                  const double* bt, std::int64_t ldbt, double* c,
                  std::int64_t ldc) {
  gemm_bt_simd_on(simd_isa(), mode, m, n, k, a, lda, bt, ldbt, c, ldc);
}

}  // namespace mri::kernels::detail

// google-benchmark microbenchmarks of the kernel engine and substrates:
// dense GEMM per backend (naive/tiled/simd/threaded), the transposed-B
// variant (§6.3), blocked TRSM, the single-node LU (Algorithm 1),
// triangular inversion (Eq. 4), the DFS data path, and the two integrity
// and erasure-coding byte loops (CRC32C and GF(2^8) multiply-add), each on
// its portable and its runtime-dispatched path.
//
// Run with --benchmark_format=json for machine-readable per-backend
// GFLOP/s: items_processed counts n³ multiply-adds, so items_per_second is
// directly comparable across backends (CI asserts the selected non-naive
// backend reaches >= 3x naive on the 1024² GEMM, the transposed-B SIMD GEMM
// >= 0.75x the SIMD GEMM there — read from BM_GemmBtOverGemm, which times
// the two interleaved — the SIMD GEMM at n=30 >= 0.5x its rate at n=32, and
// the Eq. 4 column slice >= 0.3x the SIMD GEMM). The threaded rows are timed
// in real time: their work runs on other threads, so the calling thread's
// CPU time would overstate their rate many times over. The byte loops
// report bytes_per_second (CI asserts each dispatched path reaches >= 5x its
// portable one).
#include <benchmark/benchmark.h>
#include <time.h>

#include "dfs/dfs.hpp"
#include "dfs/ec/gf256.hpp"
#include "dfs/integrity/crc32c.hpp"
#include "linalg/kernels/kernel.hpp"
#include "linalg/lu.hpp"
#include "linalg/triangular.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri {
namespace {

// C = A · B (or A · Bᵀ) into a C allocated once, so only the kernel is
// timed, not an n² allocation and zero fill per iteration.
void run_gemm(benchmark::State& state, kernels::Backend backend,
              bool transposed_b) {
  const Index n = state.range(0);
  const Matrix a = random_matrix(n, 1);
  const Matrix b = random_matrix(n, 2);
  Matrix c(n, n);
  MatmulOptions opts;
  opts.backend = backend;
  opts.transposed_b = transposed_b;
  for (auto _ : state) {
    matmul_into(a, b, &c, kernels::GemmMode::kAssign, opts);
    benchmark::DoNotOptimize(c.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}

// The odd sizes cover the packed kernel's edges: 30 and 127 leave partial
// microkernel tiles on both paths, 511 a partial 256-column panel.
void BM_Gemm(benchmark::State& state, kernels::Backend backend) {
  run_gemm(state, backend, /*transposed_b=*/false);
}
BENCHMARK_CAPTURE(BM_Gemm, naive, kernels::Backend::kNaive)
    ->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Gemm, tiled, kernels::Backend::kTiled)
    ->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Gemm, simd, kernels::Backend::kSimd)
    ->Arg(30)->Arg(32)->Arg(64)->Arg(127)->Arg(256)->Arg(511)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Gemm, threaded, kernels::Backend::kThreaded)
    ->Arg(256)->Arg(1024)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_GemmTransposedB(benchmark::State& state, kernels::Backend backend) {
  run_gemm(state, backend, /*transposed_b=*/true);
}
BENCHMARK_CAPTURE(BM_GemmTransposedB, naive, kernels::Backend::kNaive)
    ->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GemmTransposedB, tiled, kernels::Backend::kTiled)
    ->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GemmTransposedB, simd, kernels::Backend::kSimd)
    ->Arg(30)->Arg(64)->Arg(127)->Arg(256)->Arg(511)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

double thread_cpu_seconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// The SIMD GEMM with Bᵀ over the SIMD GEMM, timed call by call in one loop
// (alternating which goes first), so a host whose load changes between two
// separately timed rows cannot move the ratio. Counter bt_over_gemm is the
// transposed-B rate over the plain rate.
void BM_GemmBtOverGemm(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = random_matrix(n, 1);
  const Matrix b = random_matrix(n, 2);
  Matrix c(n, n);
  MatmulOptions plain;
  plain.backend = kernels::Backend::kSimd;
  MatmulOptions transposed = plain;
  transposed.transposed_b = true;
  double plain_s = 0.0;
  double transposed_s = 0.0;
  const auto timed = [&](const MatmulOptions& opts, double* seconds) {
    const double t0 = thread_cpu_seconds();
    matmul_into(a, b, &c, kernels::GemmMode::kAssign, opts);
    benchmark::DoNotOptimize(c.data().data());
    benchmark::ClobberMemory();
    *seconds += thread_cpu_seconds() - t0;
  };
  bool plain_first = true;
  for (auto _ : state) {
    if (plain_first) {
      timed(plain, &plain_s);
      timed(transposed, &transposed_s);
    } else {
      timed(transposed, &transposed_s);
      timed(plain, &plain_s);
    }
    plain_first = !plain_first;
  }
  state.counters["bt_over_gemm"] = plain_s / transposed_s;
}
BENCHMARK(BM_GemmBtOverGemm)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_TrsmLowerLeft(benchmark::State& state, kernels::Backend backend) {
  const Index n = state.range(0);
  Matrix l = random_matrix(n, n, 4, -1, 1);
  for (Index i = 0; i < n; ++i) l(i, i) = 2.0 + static_cast<double>(i % 3);
  const Matrix b = random_matrix(n, n, 5, -1, 1);
  kernels::KernelContext ctx;
  ctx.backend = backend;
  for (auto _ : state) {
    Matrix x = b;
    ctx.trsm_lower_left(false, n, n, l.data().data(), n, x.data().data(), n);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n / 2);
}
BENCHMARK_CAPTURE(BM_TrsmLowerLeft, naive, kernels::Backend::kNaive)
    ->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TrsmLowerLeft, tiled, kernels::Backend::kTiled)
    ->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);
// 64 is one diagonal block: the in-block substitution alone (on AVX-512
// strips where the CPU has AVX-512F), no trailing GEMM.
BENCHMARK_CAPTURE(BM_TrsmLowerLeft, simd, kernels::Backend::kSimd)
    ->Arg(64)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_LuDecompose(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = random_matrix(n, 3);
  for (auto _ : state) benchmark::DoNotOptimize(lu_decompose(a));
  state.SetItemsProcessed(state.iterations() * n * n * n / 3);
}
BENCHMARK(BM_LuDecompose)->Arg(64)->Arg(256)->Arg(512);

void BM_InvertLower(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix l = random_unit_lower_triangular(n, 4);
  for (auto _ : state) benchmark::DoNotOptimize(invert_lower(l));
  state.SetItemsProcessed(state.iterations() * n * n * n / 6);
}
BENCHMARK(BM_InvertLower)->Arg(64)->Arg(128)->Arg(256);

// One §5.4 mapper's Eq. 4 slice: every 4th column of L⁻¹ from column 0.
// items_processed is the Σ(n − k)²/2 multiply-adds of those columns, so
// items_per_second compares directly with BM_Gemm's (CI asserts >= 0.3x
// the SIMD GEMM at 1024 from the same run).
void BM_InvertLowerColumns(benchmark::State& state) {
  const Index n = state.range(0);
  // Off-diagonal entries in ±1/n keep L⁻¹ in the normal range at any order,
  // so no overflow or denormal arithmetic is timed.
  Matrix l = random_matrix(n, n, 7, -1.0 / static_cast<double>(n),
                           1.0 / static_cast<double>(n));
  for (Index i = 0; i < n; ++i) {
    l(i, i) = 1.0;
    for (Index j = i + 1; j < n; ++j) l(i, j) = 0.0;
  }
  std::vector<Index> ids;
  std::int64_t items = 0;
  for (Index k = 0; k < n; k += 4) {
    ids.push_back(k);
    items += (n - k) * (n - k) / 2;
  }
  for (auto _ : state) benchmark::DoNotOptimize(invert_lower_columns(l, ids));
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_InvertLowerColumns)
    ->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_SolveLower(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix l = random_unit_lower_triangular(n, 5);
  const Matrix b = random_matrix(n, n / 2, 6, -1, 1);
  for (auto _ : state) benchmark::DoNotOptimize(solve_lower(l, b));
  state.SetItemsProcessed(state.iterations() * n * n * (n / 2) / 2);
}
BENCHMARK(BM_SolveLower)->Arg(64)->Arg(128)->Arg(256);

void BM_DfsWriteRead(benchmark::State& state) {
  const std::size_t kb = static_cast<std::size_t>(state.range(0));
  dfs::Dfs fs(4);
  std::vector<double> payload(kb * 128);  // kb KiB of doubles
  int i = 0;
  for (auto _ : state) {
    const std::string path = "/bench/f." + std::to_string(i++);
    fs.write_doubles(path, payload);
    benchmark::DoNotOptimize(fs.read_doubles(path));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size() * 8 * 2));
}
BENCHMARK(BM_DfsWriteRead)->Arg(64)->Arg(1024);

// Deterministic pseudo-random bytes (xorshift).
std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  std::uint64_t x = seed * 2654435761u + 1;
  for (std::uint8_t& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x >> 32);
  }
  return out;
}

// Sizes: 10489 B is the mean verified cell of an order-1024, nb-64 RS(6,3)
// run with checksums on; 1 MiB streams from L2.
void BM_Crc32c(benchmark::State& state,
               std::uint32_t (*crc)(std::span<const std::byte>,
                                    std::uint32_t)) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint8_t> bytes = random_bytes(n, 1);
  const auto data = std::as_bytes(std::span<const std::uint8_t>(bytes));
  for (auto _ : state) benchmark::DoNotOptimize(crc(data, 0));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_Crc32c, portable, &dfs::detail::crc32c_portable)
    ->Arg(10489)->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_Crc32c, dispatched, &dfs::crc32c)
    ->Arg(10489)->Arg(1 << 20);

void BM_GfMulAdd(benchmark::State& state,
                 void (*mul_add)(std::uint8_t, const std::uint8_t*,
                                 std::uint8_t*, std::size_t)) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint8_t> src = random_bytes(n, 2);
  std::vector<std::uint8_t> dst = random_bytes(n, 3);
  // A coefficient from run-time data that is neither 0 nor 1, which both
  // paths short-cut.
  const auto coeff = static_cast<std::uint8_t>(src[0] | 2);
  for (auto _ : state) {
    mul_add(coeff, src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_GfMulAdd, portable, &dfs::ec::detail::gf_mul_add_portable)
    ->Arg(10489)->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_GfMulAdd, dispatched, &dfs::ec::gf_mul_add)
    ->Arg(10489)->Arg(1 << 20);

}  // namespace
}  // namespace mri

int main(int argc, char** argv) {
  // Which microkernel the simd and threaded rows ran on (e.g. "simd (avx512
  // 8x16)"): the paths give the same bits but not the same speed.
  benchmark::AddCustomContext(
      "simd_path",
      mri::kernels::backend_description(mri::kernels::Backend::kSimd));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

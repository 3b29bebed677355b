// Intra-task threading: row-partitioned std::thread fan-out over a serial
// backend. A row of C depends only on the matching row of A (and all of B),
// so threads never share output rows, and since every serial backend gives
// a row the same bits whichever rows share its call, any split is bitwise
// identical to the serial run.
#include <thread>
#include <vector>

#include "linalg/kernels/detail.hpp"

namespace mri::kernels::detail {

namespace {

int worker_count(int threads, std::int64_t rows) {
  int t = threads > 0 ? threads
                      : static_cast<int>(std::thread::hardware_concurrency());
  if (t < 1) t = 1;
  if (t > rows) t = static_cast<int>(rows);  // no point in idle workers
  return t;
}

template <typename RowSlice>
void fan_out(int threads, std::int64_t m, RowSlice&& slice) {
  const int t = worker_count(threads, m);
  if (t <= 1) {
    slice(0, m);
    return;
  }
  // Near-even partition; the last worker takes the remainder.
  const std::int64_t chunk_rows = (m + t - 1) / t;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(t));
  for (std::int64_t r0 = 0; r0 < m; r0 += chunk_rows) {
    const std::int64_t r1 = std::min<std::int64_t>(r0 + chunk_rows, m);
    workers.emplace_back([&slice, r0, r1] { slice(r0, r1); });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace

void gemm_threaded(Backend serial, int threads, GemmMode mode, std::int64_t m,
                   std::int64_t n, std::int64_t k, const double* a,
                   std::int64_t lda, const double* b, std::int64_t ldb,
                   double* c, std::int64_t ldc) {
  fan_out(threads, m, [&](std::int64_t r0, std::int64_t r1) {
    dispatch_gemm(serial, 1, mode, r1 - r0, n, k, a + r0 * lda, lda, b, ldb,
                  c + r0 * ldc, ldc);
  });
}

void gemm_bt_threaded(Backend serial, int threads, GemmMode mode,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      const double* a, std::int64_t lda, const double* bt,
                      std::int64_t ldbt, double* c, std::int64_t ldc) {
  fan_out(threads, m, [&](std::int64_t r0, std::int64_t r1) {
    dispatch_gemm_bt(serial, 1, mode, r1 - r0, n, k, a + r0 * lda, lda, bt,
                     ldbt, c + r0 * ldc, ldc);
  });
}

}  // namespace mri::kernels::detail

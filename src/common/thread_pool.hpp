// Fixed-size thread pool used by the MapReduce runtime to execute map and
// reduce tasks with real computation.
//
// The pool is deliberately simple: submit() returns a std::future, workers
// pull from a single locked queue. Each task pays a queue hand-off and a
// worker wake-up, which only large tasks amortize: small inversions run their
// tasks on the calling thread instead (serial_for; the size rule lives in
// core/inverter.hpp).
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace mri {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Submits a callable; returns a future for its result. Exceptions thrown
  /// by the callable propagate through the future.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      MRI_CHECK_MSG(!stopping_, "submit() on a stopped ThreadPool");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// True when the calling thread is one of this pool's workers.
  bool in_worker_thread() const;

  /// Runs `fn(i)` for i in [0, count) across the pool and waits for all.
  /// Every iteration runs even when some throw; the lowest-index exception
  /// is rethrown afterwards. Safe to call from inside a worker thread: the
  /// iterations then run through serial_for on the caller (waiting on pool
  /// futures from a worker would deadlock).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs `fn(i)` for i in [0, count) on the calling thread, in index order,
/// with parallel_for's error behaviour: every iteration runs even when some
/// throw, and the lowest-index exception is rethrown afterwards.
void serial_for(std::size_t count, const std::function<void(std::size_t)>& fn);

}  // namespace mri

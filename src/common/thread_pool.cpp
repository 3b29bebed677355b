#include "common/thread_pool.hpp"

namespace mri {

ThreadPool::ThreadPool(std::size_t num_threads) {
  MRI_REQUIRE(num_threads >= 1, "ThreadPool needs at least one thread");
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

bool ThreadPool::in_worker_thread() const {
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread& w : workers_) {
    if (w.get_id() == self) return true;
  }
  return false;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  // Nested parallelism: a worker waiting on futures that need this same
  // pool's workers deadlocks once all workers block. Run inline instead.
  if (in_worker_thread()) {
    serial_for(count, fn);
    return;
  }
  // Each task hands its exception back as a value: get() moves it out of
  // the shared state, so the last reference, and with it the exception
  // object, dies on this thread. Left in the state as a thrown exception,
  // it would die on whichever worker released the task last, racing the
  // caller still reading it.
  std::vector<std::future<std::exception_ptr>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(submit([&fn, i]() -> std::exception_ptr {
      try {
        fn(i);
      } catch (...) {
        return std::current_exception();
      }
      return nullptr;
    }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    std::exception_ptr error = f.get();
    if (error && !first_error) first_error = std::move(error);
  }
  if (first_error) std::rethrow_exception(first_error);
}

void serial_for(std::size_t count,
                const std::function<void(std::size_t)>& fn) {
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < count; ++i) {
    try {
      fn(i);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mri

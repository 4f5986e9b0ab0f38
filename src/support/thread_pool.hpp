// Minimal fixed-size worker pool for the composition-sweep engine.
//
// Many-config exploration (synthesis candidates × kernels, bench sweeps) is
// embarrassingly parallel: each scheduling run is independent and pure. The
// pool runs submitted tasks on N std::threads; `wait()` blocks until every
// submitted task has finished. Tasks must not throw; `parallelFor` catches
// its callback's exceptions itself and rethrows the first one to its caller.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/assert.hpp"

namespace cgra {

class ThreadPool {
public:
  /// `numThreads == 0` selects the hardware concurrency (at least 1).
  explicit ThreadPool(unsigned numThreads = 0) {
    if (numThreads == 0) numThreads = defaultThreads();
    workers_.reserve(numThreads);
    for (unsigned i = 0; i < numThreads; ++i)
      workers_.emplace_back([this] { workerLoop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  static unsigned defaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// Enqueues a task; it may start immediately on an idle worker.
  void submit(std::function<void()> task) {
    CGRA_ASSERT(task != nullptr);
    {
      std::unique_lock<std::mutex> lock(mu_);
      CGRA_ASSERT_MSG(!stopping_, "submit after shutdown");
      queue_.push_back(std::move(task));
      ++pending_;
    }
    wake_.notify_one();
  }

  /// Blocks until every submitted task has completed.
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return pending_ == 0; });
  }

private:
  void workerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (--pending_ == 0) idle_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `fn(i)` for i in [0, n) across `threads` workers (0 = hardware
/// concurrency; 1 runs inline without spawning). Blocks until all complete.
/// When `fn` throws on the pool path, every other index still runs and the
/// first exception is rethrown here; inline, it propagates at once.
template <typename Fn>
void parallelFor(std::size_t n, unsigned threads, Fn&& fn) {
  if (threads == 0) threads = ThreadPool::defaultThreads();
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(threads);
  std::atomic<std::size_t> next{0};
  std::mutex errorMu;
  std::exception_ptr error;
  const unsigned spawned = static_cast<unsigned>(
      std::min<std::size_t>(n, threads));
  for (unsigned w = 0; w < spawned; ++w)
    pool.submit([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(errorMu);
          if (error == nullptr) error = std::current_exception();
        }
      }
    });
  pool.wait();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace cgra

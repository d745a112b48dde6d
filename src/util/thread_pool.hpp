#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qulrb::util {

/// Minimal fixed-size thread pool for embarrassingly parallel solver work
/// (multi-start annealing restarts, parallel tempering replica intervals).
/// Tasks handed to submit() may not throw; wrap user work in try/catch at the
/// submission site if it can. parallel_for forwards the first exception its
/// function throws to the caller.
class ThreadPool {
 public:
  /// threads == 0 picks hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task. Safe to call from multiple threads.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  /// Run fn(i) for i in [0, count) across the pool and the calling thread,
  /// and return once every index has finished. Pool workers and the caller
  /// claim indices from one shared counter, so the caller runs unclaimed
  /// work itself: this never deadlocks, not even when called from inside a
  /// pool task, and it waits only for this batch, not for anything else the
  /// pool is running. Rethrows the first exception fn threw, after every
  /// index has finished.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace qulrb::util

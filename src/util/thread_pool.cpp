#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace qulrb::util {

namespace {

/// One parallel_for call: the index counter its claimers share, and the
/// completion count its caller waits on. Shared with the runner tasks, which
/// may be dequeued after the call has returned.
struct Batch {
  Batch(const std::function<void(std::size_t)>& f, std::size_t n) : fn(f), count(n) {}

  /// Claim and run indices until none is left unclaimed.
  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      std::exception_ptr failure;
      try {
        fn(i);
      } catch (...) {
        failure = std::current_exception();
      }
      std::lock_guard lock(mutex);
      if (failure && !error) error = failure;
      if (++done == count) cv_done.notify_all();
    }
  }

  /// Only called before the batch is done, so `fn` (owned by the caller)
  /// is alive whenever it runs.
  const std::function<void(std::size_t)>& fn;
  const std::size_t count;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable cv_done;
  std::size_t done = 0;      ///< guarded by mutex
  std::exception_ptr error;  ///< guarded by mutex
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  auto batch = std::make_shared<Batch>(fn, count);
  // One runner per worker that could help; each claims indices until the
  // batch is exhausted. A runner dequeued after the batch is done claims
  // nothing and only drops its reference.
  const std::size_t runners = std::min(count, workers_.size());
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < runners; ++i) {
      queue_.push_back([batch] { batch->drain(); });
    }
  }
  cv_task_.notify_all();
  batch->drain();
  std::unique_lock lock(batch->mutex);
  batch->cv_done.wait(lock, [&] { return batch->done == batch->count; });
  if (batch->error) std::rethrow_exception(batch->error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace qulrb::util

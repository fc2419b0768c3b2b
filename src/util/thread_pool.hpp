// gridbw/util/thread_pool.hpp
//
// A fixed-size worker pool with a blocking task queue, plus a deterministic
// parallel_for_index used by the experiment harness to fan Monte-Carlo
// replications out across cores. The algorithms themselves stay sequential
// (they are online schedulers); parallelism lives at the replication level,
// where streams are pre-derived per index so that parallel and serial
// execution give identical results.
//
// Shutdown contract: `shutdown()` (or the destructor, which calls it) marks
// the pool stopping, drains every task already queued, and joins the
// workers. It is idempotent. Once a thread has observed the pool stopping,
// `submit` refuses new work by throwing std::runtime_error — the throw
// happens after the queue lock is released, so a racing worker can never
// block behind an unwinding submitter. Submitting concurrently with
// `shutdown()` either enqueues (and the task runs before join) or throws;
// no task is silently dropped.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gridbw {

/// Fixed pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Equivalent to shutdown().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers the pool was created with (stable across shutdown).
  [[nodiscard]] std::size_t thread_count() const { return thread_count_; }

  /// Drains outstanding tasks, joins the workers, and rejects subsequent
  /// submits. Idempotent and safe to race with other shutdown() calls;
  /// must not be called from a worker thread (it would self-join).
  void shutdown();

  /// True once shutdown has begun; submits are guaranteed to throw after
  /// this returns true.
  [[nodiscard]] bool stopping() const {
    std::lock_guard lock{mutex_};
    return stopping_;
  }

  /// Enqueues a task; the returned future rethrows any task exception.
  /// Throws std::runtime_error (outside the queue lock) after shutdown.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto future = task->get_future();
    bool rejected = false;
    {
      std::lock_guard lock{mutex_};
      if (stopping_) {
        rejected = true;  // throw below, after the lock is released
      } else {
        queue_.emplace([task] { (*task)(); });
      }
    }
    if (rejected) throw std::runtime_error{"ThreadPool: submit after shutdown"};
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::size_t thread_count_{0};
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;  // guarded by mutex_
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_{false};  // guarded by mutex_
};

/// Runs body(i) for i in [0, count) on `pool`, blocking until all complete.
/// Exception propagation is deterministic: every iteration runs to
/// completion (or failure), then the exception thrown by the *lowest*
/// failing index is rethrown regardless of thread scheduling; exceptions
/// from higher indices are discarded. Iterations must not depend on
/// execution order.
void parallel_for_index(ThreadPool& pool, std::size_t count,
                        const std::function<void(std::size_t)>& body);

/// Serial fallback with the same signature, for --threads=1 paths and tests.
/// Matches parallel_for_index's exception contract trivially (the lowest
/// failing index throws first and stops the loop).
void serial_for_index(std::size_t count, const std::function<void(std::size_t)>& body);

}  // namespace gridbw

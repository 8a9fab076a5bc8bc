// Work-queue thread pool used for (a) running independent simulator
// configurations of a sweep in parallel and (b) the OoC numerical kernels
// (blocked SpMM / dense updates).
//
// Design notes (HPC-parallel idioms): tasks are type-erased closures; a
// parallel_for helper chunks an index range so that the per-task overhead
// amortises; exceptions thrown by tasks are captured and rethrown on
// wait() so failures in worker threads are never silently dropped.
//
// Shutdown contract (ordering matters under exceptions):
//   - The constructor is exception-safe: if spawning the Nth worker
//     throws, the N-1 already-running workers are stopped and joined
//     before the exception escapes (otherwise their std::thread
//     destructors would call std::terminate).
//   - The destructor drains every queued task, then joins. A task error
//     still pending at destruction (wait() never called) cannot be
//     rethrown from a destructor; it is dropped by design — call wait()
//     if you care about failures.
//   - parallel_for never lets an exception escape while workers still
//     reference its `body` argument: both a failing submit() and a
//     failing task first drain in-flight chunks, then rethrow.
//   - Submitting concurrently with destruction is undefined behaviour
//     (as for any object); tasks submitted before the destructor starts
//     are guaranteed to run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/shard_domain.hpp"

namespace nvmooc {

// Host-side work distribution only (sweep workers, numeric kernels): a
// replay itself is single-threaded, and sweeps get their parallelism by
// running independent experiments on separate workers.
class SIM_SHARD_SHARED("mutex plus condvars guard queue, in-flight count and error slot; workers joined before destruction completes") ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  /// Exception-safe: a failed spawn joins the already-started workers.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task. Tasks may themselves enqueue more tasks.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task (including transitively submitted
  /// ones) has finished. Rethrows the first captured task exception.
  void wait();

  /// Splits [begin, end) into ~3x thread_count chunks and runs
  /// body(chunk_begin, chunk_end) across the pool, then waits. No
  /// exception — from a task or from enqueueing itself — escapes until
  /// every already-queued chunk has finished, so `body` is never
  /// referenced by a worker after parallel_for returns or throws.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();
  /// Stops accepting the idle-wait, wakes every worker, joins. Safe to
  /// call with partially-constructed worker sets; never throws.
  void shutdown() noexcept;
  /// wait() without rethrow: blocks until idle, returns the pending
  /// error (cleared) if any.
  std::exception_ptr wait_idle();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// Process-wide pool for callers that do not manage their own; built
/// lazily with hardware_concurrency threads.
ThreadPool& global_thread_pool();

}  // namespace nvmooc

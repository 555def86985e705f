#pragma once
// Fixed-size thread pool with a parallel_for helper. Parameter sweeps
// in the experiment harness (greenmatch_sweep --jobs, the bench
// binaries) run one independent simulation per index, so a simple
// static block partition is the right decomposition (runs have similar
// cost); work stealing would be overkill.
//
// Completion is tracked per *batch*, not pool-wide: each Batch owns
// its own outstanding-task counter, so two overlapping batches on a
// shared pool wait only for their own work. (A pool-wide wait-for-idle
// made each batch wait for the other's stragglers, and hung forever
// if another client's tasks were long-running or blocked.)

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gm {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueue a task; returns immediately. The task must not throw —
  /// submit through a Batch (or parallel_for) for exception capture.
  void submit(std::function<void()> task);

  /// True when the calling thread is one of this pool's workers.
  /// parallel_for uses this to degrade nested calls to inline serial
  /// execution instead of deadlocking on a saturated pool.
  bool on_worker_thread() const;

  /// Per-batch completion token. Tracks only the tasks submitted
  /// through it, captures the first exception any of them throws, and
  /// rethrows it from wait(). Independent of every other batch on the
  /// same pool. Must not be constructed on one of the pool's own
  /// worker threads (asserts): waiting there can leave no thread free
  /// to run the batch.
  class Batch {
   public:
    explicit Batch(ThreadPool& pool);
    /// Drains any tasks still outstanding (their exceptions are
    /// dropped — call wait() to observe them).
    ~Batch();
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    void submit(std::function<void()> task);

    /// Blocks until every task submitted through this batch has
    /// finished, then rethrows the first captured exception, if any.
    void wait();

   private:
    ThreadPool& pool_;
    std::mutex mutex_;
    std::condition_variable cv_done_;
    std::size_t outstanding_ = 0;
    std::exception_ptr first_error_;
  };

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

/// Runs body(i) for i in [0, n) across the pool's threads in chunks.
/// Exceptions from the body propagate (first one wins) after all
/// chunks finish. Called from one of the pool's own workers (nested
/// parallelism), it runs the whole range inline on the calling thread
/// instead — slower, never deadlocks.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Single-shot convenience: creates a transient pool sized to the
/// machine and runs the loop. Runs inline on the calling thread
/// instead when that thread is a worker of any ThreadPool (its caller
/// already parallelises at a coarser grain) or when n <= 1.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace gm

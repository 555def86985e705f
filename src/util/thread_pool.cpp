#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace gm {

namespace {
// Set for the lifetime of each worker thread so on_worker_thread()
// (and through it parallel_for's nested-call fallback and the Batch
// construction check) can identify calls made from inside the pool,
// and the transient parallel_for calls made from inside any pool.
thread_local const ThreadPool* tl_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  GM_ASSERT(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    GM_ASSERT_MSG(!stop_, "submit after shutdown");
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

bool ThreadPool::on_worker_thread() const {
  return tl_worker_pool == this;
}

void ThreadPool::worker_loop() {
  tl_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // Batch-wrapped tasks never throw
  }
}

ThreadPool::Batch::Batch(ThreadPool& pool) : pool_(pool) {
  GM_ASSERT_MSG(!pool.on_worker_thread(),
                "Batch created on a worker of its own pool; waiting "
                "there can deadlock a saturated pool — use nested "
                "parallel_for (which runs inline) instead");
}

ThreadPool::Batch::~Batch() {
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [this] { return outstanding_ == 0; });
}

void ThreadPool::Batch::submit(std::function<void()> task) {
  GM_ASSERT(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    ++outstanding_;
  }
  pool_.submit([this, task = std::move(task)] {
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    // Notify under the lock: the waiter can only return from wait()
    // after this thread releases mutex_, so the Batch cannot be
    // destroyed while we still touch its members.
    std::lock_guard lock(mutex_);
    if (error && !first_error_) first_error_ = std::move(error);
    if (--outstanding_ == 0) cv_done_.notify_all();
  });
}

void ThreadPool::Batch::wait() {
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [this] { return outstanding_ == 0; });
  if (first_error_) {
    auto error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (pool.on_worker_thread()) {
    // Nested call from inside the pool: run inline rather than wait
    // on workers that may all be blocked in outer parallel_fors.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t threads = pool.thread_count();
  const std::size_t chunks = std::min(n, threads * 4);
  const std::size_t chunk = (n + chunks - 1) / chunks;

  ThreadPool::Batch batch(pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    batch.submit([&, begin, end] {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }
  batch.wait();
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  // On a worker of any pool (a sweep point, a bench fan-out) every
  // core already has work, so a transient pool would only
  // oversubscribe the machine; a single index needs no pool either.
  if (on_pool_worker() || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool;
  parallel_for(pool, n, body);
}

bool on_pool_worker() { return tl_worker_pool != nullptr; }

void run_beside(const std::function<void()>& task,
                const std::function<void()>& body) {
  if (on_pool_worker()) {
    task();
    body();
    return;
  }
  std::exception_ptr task_error;
  std::thread side([&] {
    try {
      task();
    } catch (...) {
      task_error = std::current_exception();
    }
  });
  try {
    body();
  } catch (...) {
    side.join();
    throw;
  }
  side.join();
  if (task_error) std::rethrow_exception(task_error);
}

}  // namespace gm

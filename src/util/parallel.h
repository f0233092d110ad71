// Fixed-size thread pool for the offline ARROW stage and evaluation sweep.
//
// Determinism contract: ThreadPool never decides *what* work happens, only
// *where*. parallel_for hands every index to exactly one task body, callers
// write results into per-index slots, and any randomness is derived from
// counter-seeded util::Rng streams (see util::stream_seed) — so results are
// bit-identical at any thread count, including the inline threads == 1 case.
//
// Task context: util owns one opaque per-thread slot that a higher layer
// (the solver's scoped guards, solver/lp.h) points at its ambient state.
// submit() — and therefore parallel_for() — captures the submitting thread's
// slot and installs it on the worker for the task's lifetime, restoring the
// worker's own value afterwards, so work behaves the same on a worker as
// inline on the caller. What the slot points at must outlive every task
// submitted under it: parallel_for blocks until its tasks finish; a submit()
// caller joins the future (or wait()s) before leaving the guard's scope.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <vector>

namespace arrow::util {

class ThreadPool {
 public:
  // threads <= 0 selects default_thread_count(). threads == 1 spawns no
  // workers: submit() and parallel_for() execute inline on the caller.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  // Enqueues one task; the future rethrows whatever the task threw. The
  // exception is *also* recorded as the pool's pending error (first thrower
  // wins), so a caller that discards the future still sees it at the next
  // wait() instead of the failure vanishing silently.
  std::future<void> submit(std::function<void()> task);

  // Blocks until every queued and in-flight task has finished, then
  // rethrows the pool's pending error (and clears it) if any task threw
  // since the last wait()/parallel_for(). The pool stays usable after the
  // throw. Note an exception may surface twice — once through its future,
  // once here — when the caller consumes both.
  void wait();

  // Calls fn(i) exactly once for every i in [begin, end), spread across the
  // pool, and blocks until all are done. Indices are claimed dynamically, so
  // fn must only touch state owned by its own index. The first exception
  // thrown by any fn is rethrown here after the loop drains (and the
  // pending-error slot is cleared — the error was delivered).
  void parallel_for(int begin, int end, const std::function<void(int)>& fn);

 private:
  struct Task {
    std::packaged_task<void()> body;
  };

  void worker_loop();
  void record_error(std::exception_ptr error);
  // Pops the pending error (caller rethrows outside the lock).
  std::exception_ptr take_error();

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;       // workers: work available / stop
  std::condition_variable idle_cv_;  // waiters: queue drained + nothing active
  std::vector<Task> queue_;  // FIFO via head index
  std::size_t queue_head_ = 0;
  int active_ = 0;           // tasks currently executing on workers
  std::exception_ptr first_error_;   // first undelivered task exception
  bool stop_ = false;
};

// This thread's task-context slot (nullptr when nothing is installed).
const void* task_context();
void set_task_context(const void* context);

// ARROW_THREADS env override when set to a positive integer, otherwise
// std::thread::hardware_concurrency() (at least 1). Read on every call so
// tests can flip the override at runtime.
int default_thread_count();

// Process-wide pool, lazily sized by default_thread_count() on first use.
ThreadPool& global_pool();

}  // namespace arrow::util

// Fixed-size thread pool for the offline ARROW stage and evaluation sweep.
//
// Determinism contract: ThreadPool never decides *what* work happens, only
// *where*. parallel_for hands every index to exactly one body, callers
// write results into per-index slots, and any randomness is derived from
// counter-seeded util::Rng streams (see util::stream_seed) — so results are
// bit-identical at any thread count, including the inline threads == 1 case.
//
// Task context: util owns one opaque per-thread slot that a higher layer
// (the solver's scoped guards, solver/lp.h) points at its ambient state.
// parallel_for captures the calling thread's slot and installs it on each
// worker for that worker's share of the loop, restoring the worker's own
// value afterwards, so work behaves the same on a worker as inline on the
// caller. parallel_for blocks until every share has finished, so whatever
// the slot points at outlives the loop.
//
// Nesting: a parallel_for called from one of the pool's own workers runs
// inline on that worker, so code handed a pool never needs to know whether
// it already runs on one. Loops from different threads take turns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace arrow::util {

class ThreadPool {
 public:
  // threads <= 0 selects default_thread_count(). threads == 1 spawns no
  // workers: parallel_for executes inline on the caller.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  // Calls fn(i) exactly once for every i in [begin, end) and blocks until
  // all are done. With workers, the bodies run on them (never on the
  // caller) and indices are claimed dynamically, so fn must only touch
  // state owned by its own index. The first exception thrown by any fn
  // stops further claims and is rethrown here once every share has
  // finished; the pool stays usable.
  void parallel_for(int begin, int end, const std::function<void(int)>& fn);

 private:
  void worker_loop();
  // Claims indices of the published loop until none are left or a body
  // threw; one pool task.
  void run_share();

  int threads_ = 1;
  std::mutex turn_mu_;  // one loop at a time: callers take turns
  std::mutex mu_;       // guards the published loop and the counts below
  std::condition_variable work_cv_;  // workers: shares open / stop
  std::condition_variable done_cv_;  // caller: every share finished
  // The published loop. Set under mu_ before any share opens.
  const std::function<void(int)>* fn_ = nullptr;
  std::atomic<int> next_{0};
  int end_ = 0;
  const void* context_ = nullptr;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  // first exception of the loop
  int open_shares_ = 0;       // shares no worker has taken yet
  int running_shares_ = 0;    // shares not yet finished
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: the workers use every member
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

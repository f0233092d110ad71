#include "util/parallel.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"

namespace arrow::util {

namespace {

// Pool telemetry, shared across every pool in the process (pools are
// short-lived and interchangeable). One task is one worker's share of a
// parallel_for; the histogram holds each share's wall time.
obs::Counter& tasks_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("arrow_threadpool_tasks_total");
  return c;
}

obs::Counter& task_exceptions_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("arrow_threadpool_task_exceptions_total");
  return c;
}

obs::Histogram& task_seconds_histogram() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("arrow_threadpool_task_seconds");
  return h;
}

thread_local const void* t_task_context = nullptr;
// The pool this thread is a worker of (nullptr on every other thread).
thread_local const ThreadPool* t_worker_of = nullptr;

// Installs a loop's captured context for one share on this thread.
class TaskContextScope {
 public:
  explicit TaskContextScope(const void* context) : saved_(t_task_context) {
    t_task_context = context;
  }
  ~TaskContextScope() { t_task_context = saved_; }
  TaskContextScope(const TaskContextScope&) = delete;
  TaskContextScope& operator=(const TaskContextScope&) = delete;

 private:
  const void* saved_;
};

}  // namespace

const void* task_context() { return t_task_context; }

void set_task_context(const void* context) { t_task_context = context; }

ThreadPool::ThreadPool(int threads) {
  threads_ = threads > 0 ? threads : default_thread_count();
  if (threads_ <= 1) return;  // inline mode: no workers
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || open_shares_ > 0; });
    if (stop_) return;
    --open_shares_;
    lock.unlock();
    run_share();
    lock.lock();
    if (--running_shares_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::run_share() {
  tasks_counter().add();
  const auto t0 = std::chrono::steady_clock::now();
  {
    TaskContextScope scope(context_);
    try {
      while (!failed_.load(std::memory_order_relaxed)) {
        const int i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= end_) break;
        (*fn_)(i);
      }
    } catch (...) {
      task_exceptions_counter().add();
      failed_.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
  task_seconds_histogram().observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
}

void ThreadPool::parallel_for(int begin, int end,
                              const std::function<void(int)>& fn) {
  if (end <= begin) return;
  if (workers_.empty() || t_worker_of == this) {
    for (int i = begin; i < end; ++i) fn(i);
    return;
  }
  // Dynamic index claiming: which worker runs which index is scheduling
  // noise, but every index runs exactly once, so slot-writing callers are
  // deterministic regardless.
  std::lock_guard<std::mutex> turn(turn_mu_);
  const int shares = std::min(threads_, end - begin);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    next_.store(begin, std::memory_order_relaxed);
    end_ = end;
    context_ = t_task_context;
    failed_.store(false, std::memory_order_relaxed);
    open_shares_ = shares;
    running_shares_ = shares;
  }
  work_cv_.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return running_shares_ == 0; });
    error = std::move(error_);
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

int default_thread_count() {
  if (const char* env = std::getenv("ARROW_THREADS")) {
    char* tail = nullptr;
    const long v = std::strtol(env, &tail, 10);
    if (tail != env && *tail == '\0' && v > 0 && v <= 1024) {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& global_pool() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

}  // namespace arrow::util

#include "util/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "util/check.h"

namespace arrow::util {

namespace {

// Pool telemetry. Shared across every pool in the process (pools are
// short-lived and interchangeable); the gauge tracks the most recent
// observed backlog, the histogram the per-task wall time.
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("arrow_threadpool_queue_depth");
  return g;
}

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

// Installs a task's captured context for its lifetime on this thread.
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
  if (threads_ <= 1) return;  // inline mode: no workers, no queue
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
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::record_error(std::exception_ptr error) {
  task_exceptions_counter().add();
  std::lock_guard<std::mutex> lock(mu_);
  if (!first_error_) first_error_ = std::move(error);
}

std::exception_ptr ThreadPool::take_error() {
  std::lock_guard<std::mutex> lock(mu_);
  std::exception_ptr error = std::move(first_error_);
  first_error_ = nullptr;
  return error;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || queue_head_ < queue_.size(); });
      if (queue_head_ >= queue_.size()) return;  // stop_ and drained
      task = std::move(queue_[queue_head_++].body);
      if (queue_head_ == queue_.size()) {
        queue_.clear();
        queue_head_ = 0;
      }
      ++active_;
      queue_depth_gauge().set(
          static_cast<double>(queue_.size() - queue_head_));
    }
    const auto t0 = std::chrono::steady_clock::now();
    task();  // packaged_task captures exceptions into the future
    task_seconds_histogram().observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    bool idle = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      idle = active_ == 0 && queue_head_ >= queue_.size();
    }
    if (idle) idle_cv_.notify_all();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  tasks_counter().add();
  // Record a throwing task's exception with the pool before the
  // packaged_task captures it for the future: a discarded future then
  // still surfaces the failure at the next wait().
  auto body = [this, context = t_task_context, task = std::move(task)] {
    TaskContextScope scope(context);
    try {
      task();
    } catch (...) {
      record_error(std::current_exception());
      throw;
    }
  };
  std::packaged_task<void()> wrapped(std::move(body));
  std::future<void> future = wrapped.get_future();
  if (workers_.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    wrapped();  // inline mode: run on the caller, future already settled
    task_seconds_histogram().observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ARROW_CHECK(!stop_, "submit on a stopped ThreadPool");
    queue_.push_back(Task{std::move(wrapped)});
    queue_depth_gauge().set(static_cast<double>(queue_.size() - queue_head_));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::wait() {
  if (!workers_.empty()) {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] {
      return active_ == 0 && queue_head_ >= queue_.size();
    });
  }
  if (std::exception_ptr error = take_error()) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(int begin, int end,
                              const std::function<void(int)>& fn) {
  const int n = end - begin;
  if (n <= 0) return;
  if (workers_.empty() || n == 1) {
    for (int i = begin; i < end; ++i) fn(i);
    return;
  }
  // Dynamic index claiming: which thread runs which index is scheduling
  // noise, but every index runs exactly once, so slot-writing callers are
  // deterministic regardless.
  auto next = std::make_shared<std::atomic<int>>(begin);
  auto failed = std::make_shared<std::atomic<bool>>(false);
  const auto runner = [next, failed, end, &fn] {
    while (!failed->load(std::memory_order_relaxed)) {
      const int i = next->fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        fn(i);
      } catch (...) {
        failed->store(true, std::memory_order_relaxed);
        throw;  // lands in this runner's future
      }
    }
  };
  std::vector<std::future<void>> futures;
  const int runners = std::min(threads_, n);
  futures.reserve(static_cast<std::size_t>(runners));
  for (int r = 0; r < runners; ++r) futures.push_back(submit(runner));
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) {
    // Delivered to the caller right here; drop the pool's pending copy so a
    // later wait() does not rethrow a stale error.
    take_error();
    std::rethrow_exception(first);
  }
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

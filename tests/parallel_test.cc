// util::ThreadPool and the counter-seeded RNG stream discipline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "solver/lp.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace arrow {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyAndSingletonRanges) {
  util::ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(5, 5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](int i) {
    ++calls;
    EXPECT_EQ(i, 7);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SingleThreadRunsInlineOnCaller) {
  util::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen_for, seen_submit;
  pool.parallel_for(0, 1, [&](int) { seen_for = std::this_thread::get_id(); });
  pool.submit([&] { seen_submit = std::this_thread::get_id(); }).get();
  EXPECT_EQ(seen_for, caller);
  EXPECT_EQ(seen_submit, caller);
}

// Inline mode runs every body on the caller's thread, so every hook —
// including the per-thread observer — stays visible to the work.
TEST(ThreadPool, InlinePoolSeesAmbientHooks) {
  solver::ScopedBasisTag tag(1234);
  solver::ScopedSolveObserver observer(
      [](const solver::Lp&, solver::LpSolution&) {});
  util::ThreadPool inline_pool(1);
  bool seen = false;
  inline_pool.parallel_for(0, 1, [&](int) {
    seen = solver::ScopedBasisTag::active() == 1234 &&
           solver::ScopedSolveObserver::active() != nullptr;
  });
  EXPECT_TRUE(seen);
}

// Solver context follows the work: a task on a worker sees the warm-start
// cache, basis tag and deadline chain of the thread that submitted it,
// through parallel_for and submit alike, and a timeout noted on a worker is
// counted on the submitting thread's deadline guards.
TEST(ThreadPool, WorkersInheritSolveContext) {
  solver::ScopedWarmStartCache cache;
  solver::ScopedBasisTag tag(42);
  const util::Deadline outer = util::Deadline::after(3600.0);
  const util::Deadline inner = util::Deadline::after(1800.0);
  solver::ScopedSolveDeadline outer_guard(outer);
  solver::ScopedSolveDeadline inner_guard(inner);
  const auto caller = std::this_thread::get_id();
  const auto sees_caller_context = [&] {
    return solver::ScopedWarmStartCache::active() == &cache &&
           solver::ScopedBasisTag::active() == 42 &&
           solver::ScopedSolveDeadline::active_deadline().expiry_s() ==
               inner.expiry_s();
  };

  util::ThreadPool pool(4);
  constexpr int kN = 64;
  std::atomic<int> seen{0}, off_caller{0};
  pool.parallel_for(0, kN, [&](int) {
    if (sees_caller_context()) seen++;
    if (std::this_thread::get_id() != caller) off_caller++;
    solver::ScopedSolveDeadline::note_timeout();
  });
  EXPECT_EQ(seen.load(), kN);
  EXPECT_GT(off_caller.load(), 0);
  EXPECT_EQ(inner_guard.timeouts(), kN);
  EXPECT_EQ(outer_guard.timeouts(), kN);

  bool submitted_seen = false;
  std::thread::id submitted_on;
  pool.submit([&] {
        submitted_seen = sees_caller_context();
        submitted_on = std::this_thread::get_id();
      }).get();
  EXPECT_TRUE(submitted_seen);
  EXPECT_NE(submitted_on, caller);
}

// A guard opened inside one task is closed with it: the next task on the
// same worker starts from its own submitter's context, and a worker between
// tasks holds no context at all.
TEST(ThreadPool, TaskGuardsDoNotLeakIntoLaterTasks) {
  util::ThreadPool pool(2);
  solver::ScopedBasisTag tag(7);
  std::vector<std::thread::id> ran_on;
  bool clean = true;
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
          ran_on.push_back(std::this_thread::get_id());
          clean = clean && solver::ScopedBasisTag::active() == 7 &&
                  !solver::ScopedSolveDeadline::active_deadline().is_set() &&
                  solver::ScopedWarmStartCache::active() == nullptr;
          solver::ScopedBasisTag inner(99);
          solver::ScopedSolveDeadline deadline(util::Deadline::after(60.0));
          solver::ScopedWarmStartCache cache;
        }).get();
  }
  EXPECT_TRUE(clean);
  // Two workers, eight sequential tasks: some worker ran more than one.
  const std::set<std::thread::id> workers(ran_on.begin(), ran_on.end());
  EXPECT_LT(workers.size(), ran_on.size());

  // Tasks submitted from a thread with no guards see none.
  std::atomic<int> leaked{0};
  std::thread([&] {
    pool.parallel_for(0, 16, [&](int) {
      if (solver::ScopedBasisTag::active() != 0 ||
          solver::ScopedSolveDeadline::active_deadline().is_set()) {
        leaked++;
      }
    });
  }).join();
  EXPECT_EQ(leaked.load(), 0);
}

// The observer is per-thread by contract: observers expect single-thread
// calls in program order, so pool workers never inherit one.
TEST(ThreadPool, WorkersDoNotInheritTheSolveObserver) {
  solver::ScopedSolveObserver observer(
      [](const solver::Lp&, solver::LpSolution&) {});
  ASSERT_NE(solver::ScopedSolveObserver::active(), nullptr);
  util::ThreadPool pool(2);  // >1 thread: every body runs on a worker
  std::atomic<int> leaked{0};
  pool.parallel_for(0, 8, [&](int) {
    if (solver::ScopedSolveObserver::active() != nullptr) leaked++;
  });
  pool.submit([&] {
        if (solver::ScopedSolveObserver::active() != nullptr) leaked++;
      }).get();
  EXPECT_EQ(leaked.load(), 0);
}

TEST(ThreadPool, ParallelForRethrowsTaskException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](int i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must stay usable after an exception drained.
  std::atomic<int> n{0};
  pool.parallel_for(0, 10, [&](int) { n++; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, SubmitFutureRethrows) {
  util::ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::logic_error("task failed"); });
  EXPECT_THROW(fut.get(), std::logic_error);
}

// The regression the pool-level error slot exists for: a fire-and-forget
// submit whose future is discarded used to lose the exception entirely.
// wait() must surface it — at every pool size, including inline mode.
TEST(ThreadPool, WaitRethrowsDiscardedFutureException) {
  for (int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    if (threads == 1) {
      // Inline mode runs the task on submit; the packaged_task still
      // captures the throw, so submit itself must not propagate it.
      EXPECT_NO_THROW(
          pool.submit([] { throw std::runtime_error("dropped"); }));
    } else {
      pool.submit([] { throw std::runtime_error("dropped"); });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error) << threads << " threads";
    // The error was delivered and cleared: a second wait is clean and the
    // pool stays usable.
    EXPECT_NO_THROW(pool.wait());
    std::atomic<int> n{0};
    pool.parallel_for(0, 10, [&](int) { n++; });
    EXPECT_EQ(n.load(), 10);
  }
}

TEST(ThreadPool, WaitReportsFirstOfManyFailures) {
  util::ThreadPool pool(4);
  for (int i = 0; i < 16; ++i) {
    pool.submit([] { throw std::runtime_error("one of many"); });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_NO_THROW(pool.wait());
}

TEST(ThreadPool, WaitWithNoWorkAndNoErrorsIsANoOp) {
  util::ThreadPool pool(3);
  EXPECT_NO_THROW(pool.wait());
  std::atomic<int> n{0};
  for (int i = 0; i < 8; ++i) pool.submit([&] { n++; });
  pool.wait();
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, ParallelForDeliveryClearsThePendingError) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   0, 50,
                   [&](int i) {
                     if (i == 7) throw std::runtime_error("loop failure");
                   }),
               std::runtime_error);
  // parallel_for already delivered the exception to its caller; wait() must
  // not replay a stale copy.
  EXPECT_NO_THROW(pool.wait());
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvOverride) {
  ::setenv("ARROW_THREADS", "3", 1);
  EXPECT_EQ(util::default_thread_count(), 3);
  ::setenv("ARROW_THREADS", "0", 1);  // invalid: must fall back to hardware
  EXPECT_GE(util::default_thread_count(), 1);
  ::setenv("ARROW_THREADS", "banana", 1);
  EXPECT_GE(util::default_thread_count(), 1);
  ::unsetenv("ARROW_THREADS");
  EXPECT_GE(util::default_thread_count(), 1);
}

TEST(StreamSeed, PureFunctionOfBaseAndIndex) {
  const std::uint64_t base = 0xDEADBEEFCAFEull;
  EXPECT_EQ(util::Rng::stream_seed(base, 5), util::Rng::stream_seed(base, 5));
  // Nearby indices and nearby bases must decorrelate.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) {
    seeds.insert(util::Rng::stream_seed(base, i));
    seeds.insert(util::Rng::stream_seed(base + 1, i));
  }
  EXPECT_EQ(seeds.size(), 200u);
}

TEST(StreamSeed, StreamsIndependentOfDrawOrder) {
  // Stream i's draws depend only on (base, i), not on which sibling streams
  // were instantiated first — the property parallel fan-out relies on.
  const std::uint64_t base = 42;
  util::Rng forward_first(util::Rng::stream_seed(base, 0));
  const std::uint64_t a = forward_first.next_u64();
  util::Rng other(util::Rng::stream_seed(base, 7));
  (void)other.next_u64();
  util::Rng again(util::Rng::stream_seed(base, 0));
  EXPECT_EQ(again.next_u64(), a);
}

}  // namespace
}  // namespace arrow

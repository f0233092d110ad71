// util::ThreadPool and the counter-seeded RNG stream discipline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
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
  std::vector<std::thread::id> seen;
  const auto record = [&](int) { seen.push_back(std::this_thread::get_id()); };
  pool.parallel_for(0, 1, record);
  pool.parallel_for(0, 4, record);
  ASSERT_EQ(seen.size(), 5u);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
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

// Solver context follows the work: a body on a worker sees the warm-start
// cache, basis tag and deadline chain of the thread that called
// parallel_for, and a timeout noted on a worker is counted on the calling
// thread's deadline guards.
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

  // A one-index loop also runs on a worker, with the same context.
  bool single_seen = false;
  std::thread::id single_on;
  pool.parallel_for(0, 1, [&](int) {
    single_seen = sees_caller_context();
    single_on = std::this_thread::get_id();
  });
  EXPECT_TRUE(single_seen);
  EXPECT_NE(single_on, caller);
}

// A guard opened inside one body is closed with it: the next loop on the
// same worker starts from its own caller's context, and a worker between
// loops holds no context at all.
TEST(ThreadPool, TaskGuardsDoNotLeakIntoLaterTasks) {
  util::ThreadPool pool(2);
  solver::ScopedBasisTag tag(7);
  std::vector<std::thread::id> ran_on;
  bool clean = true;
  for (int i = 0; i < 8; ++i) {
    pool.parallel_for(0, 1, [&](int) {
      ran_on.push_back(std::this_thread::get_id());
      clean = clean && solver::ScopedBasisTag::active() == 7 &&
              !solver::ScopedSolveDeadline::active_deadline().is_set() &&
              solver::ScopedWarmStartCache::active() == nullptr;
      solver::ScopedBasisTag inner(99);
      solver::ScopedSolveDeadline deadline(util::Deadline::after(60.0));
      solver::ScopedWarmStartCache cache;
    });
  }
  EXPECT_TRUE(clean);
  // Two workers, eight successive one-index loops: some worker ran more
  // than one.
  const std::set<std::thread::id> workers(ran_on.begin(), ran_on.end());
  EXPECT_LT(workers.size(), ran_on.size());

  // Loops called from a thread with no guards see none.
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
  pool.parallel_for(0, 1, [&](int) {
    if (solver::ScopedSolveObserver::active() != nullptr) leaked++;
  });
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

// A loop called from inside a body runs inline on that body's worker, so
// the nested call cannot wait on the workers it occupies.
TEST(ThreadPool, NestedParallelForRunsInlineOnTheWorker) {
  util::ThreadPool pool(2);
  constexpr int kOuter = 6, kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> off_thread{0};
  pool.parallel_for(0, kOuter, [&](int o) {
    const auto worker = std::this_thread::get_id();
    pool.parallel_for(0, kInner, [&](int i) {
      hits[static_cast<std::size_t>(o * kInner + i)]++;
      if (std::this_thread::get_id() != worker) off_thread++;
    });
  });
  for (int k = 0; k < kOuter * kInner; ++k) {
    EXPECT_EQ(hits[static_cast<std::size_t>(k)].load(), 1) << "index " << k;
  }
  EXPECT_EQ(off_thread.load(), 0);
}

// Two threads looping on one pool at once take turns: each loop covers its
// own indices once, under its own caller's context.
TEST(ThreadPool, ConcurrentCallersTakeTurns) {
  util::ThreadPool pool(3);
  constexpr int kN = 200, kRounds = 20;
  const auto caller = [&](std::uint64_t basis_tag, std::atomic<int>* wrong,
                          std::vector<std::atomic<int>>* hits) {
    solver::ScopedBasisTag tag(basis_tag);
    for (int r = 0; r < kRounds; ++r) {
      pool.parallel_for(0, kN, [&](int i) {
        (*hits)[static_cast<std::size_t>(i)]++;
        if (solver::ScopedBasisTag::active() != basis_tag) (*wrong)++;
      });
    }
  };
  std::vector<std::atomic<int>> hits_a(kN), hits_b(kN);
  std::atomic<int> wrong_a{0}, wrong_b{0};
  std::thread a(caller, 11, &wrong_a, &hits_a);
  std::thread b(caller, 22, &wrong_b, &hits_b);
  a.join();
  b.join();
  EXPECT_EQ(wrong_a.load(), 0);
  EXPECT_EQ(wrong_b.load(), 0);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(hits_a[static_cast<std::size_t>(i)].load(), kRounds) << i;
    EXPECT_EQ(hits_b[static_cast<std::size_t>(i)].load(), kRounds) << i;
  }
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

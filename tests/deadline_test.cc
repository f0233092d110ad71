// Deadline / backoff suite (ctest label: chaos).
//
// The contract under test: a wall-clock budget on a solve is enforced at the
// simplex level (LpStatus::kTimedOut), the timed-out result still carries the
// best basis reached (so a retry warm-starts instead of restarting), ambient
// ScopedSolveDeadline guards compose by taking the earliest expiry, and the
// controller's degradation ladder turns timeouts into lower-rung plans — a
// shrinking budget degrades the answer, never the control loop. Everything
// runs under util::ScopedFakeClock, so "time runs out" is a deterministic
// count of clock reads, not a wall-clock race.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "scenario/scenario.h"
#include "solver/model.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/clock.h"
#include "util/deadline.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace arrow {
namespace {

// --- Deadline / Backoff value semantics ------------------------------------

TEST(Deadline, UnsetNeverExpires) {
  util::ScopedFakeClock clock(1000.0);
  util::Deadline d;
  EXPECT_FALSE(d.is_set());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_s(), std::numeric_limits<double>::infinity());
  clock.advance(1e12);
  EXPECT_FALSE(d.expired());
}

TEST(Deadline, AfterAtAndExpiry) {
  util::ScopedFakeClock clock(100.0);
  const util::Deadline d = util::Deadline::after(5.0);
  EXPECT_TRUE(d.is_set());
  EXPECT_DOUBLE_EQ(d.expiry_s(), 105.0);
  EXPECT_FALSE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining_s(), 5.0);
  clock.set(105.0);
  EXPECT_TRUE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining_s(), 0.0);
  // after(<= 0) is born expired — the ladder's "budget already gone" case.
  EXPECT_TRUE(util::Deadline::after(-1.0).expired());
}

TEST(Deadline, EarlierTakesTheMinAndUnsetLoses) {
  util::ScopedFakeClock clock(0.0);
  const util::Deadline a = util::Deadline::at(5.0);
  const util::Deadline b = util::Deadline::at(8.0);
  const util::Deadline unset;
  EXPECT_DOUBLE_EQ(util::Deadline::earlier(a, b).expiry_s(), 5.0);
  EXPECT_DOUBLE_EQ(util::Deadline::earlier(b, a).expiry_s(), 5.0);
  EXPECT_DOUBLE_EQ(util::Deadline::earlier(a, unset).expiry_s(), 5.0);
  EXPECT_DOUBLE_EQ(util::Deadline::earlier(unset, a).expiry_s(), 5.0);
  EXPECT_FALSE(util::Deadline::earlier(unset, unset).is_set());
}

TEST(Backoff, DeterministicGrowingCappedJittered) {
  util::BackoffParams p;
  p.base_s = 0.004;
  p.max_s = 0.010;
  p.multiplier = 2.0;
  p.jitter = 0.5;
  util::Backoff a(p, 77), b(p, 77);
  // Nominal (pre-jitter) schedule: 4ms, 8ms, then capped at 10ms forever.
  const double nominal[] = {0.004, 0.008, 0.010, 0.010, 0.010};
  for (double n : nominal) {
    const double da = a.next_s();
    EXPECT_DOUBLE_EQ(da, b.next_s());  // same seed => same delays
    EXPECT_GE(da, (1.0 - p.jitter) * n - 1e-12);
    EXPECT_LE(da, n + 1e-12);
  }
  EXPECT_EQ(a.attempts(), 5);
}

TEST(Backoff, SleepReturnsZeroPastTheDeadline) {
  util::ScopedFakeClock clock(50.0);
  util::BackoffParams p;
  util::Backoff b(p, 1);
  EXPECT_DOUBLE_EQ(b.sleep(util::Deadline::at(10.0)), 0.0);
  // The attempt (and its jitter draw) still happened — the delay sequence is
  // a pure function of the retry count, deadline or not.
  EXPECT_EQ(b.attempts(), 1);
}

TEST(FakeClock, AutoAdvanceChargesPerRead) {
  util::ScopedFakeClock clock(0.0);
  clock.set_auto_advance(0.5);
  EXPECT_DOUBLE_EQ(util::mono_now_s(), 0.0);
  EXPECT_DOUBLE_EQ(util::mono_now_s(), 0.5);
  EXPECT_DOUBLE_EQ(util::mono_now_s(), 1.0);
  clock.advance(10.0);
  EXPECT_DOUBLE_EQ(util::mono_now_s(), 11.5);
}

// --- simplex-level timeout --------------------------------------------------

// A maximization packing LP with enough coupling to need a healthy pivot
// count: n variables, `rows` random <= constraints over them.
void build_packing_lp(solver::Model& m, int n, int rows, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<solver::VarId> x;
  x.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    x.push_back(m.add_var(0.0, 10.0, rng.uniform(1.0, 2.0)));
  }
  for (int i = 0; i < rows; ++i) {
    solver::LinExpr lhs;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.4)) lhs += rng.uniform(0.1, 1.0) * x[(std::size_t)j];
    }
    m.add_constr(lhs, solver::Sense::kLe, rng.uniform(5.0, 20.0));
  }
  m.set_maximize();
}

TEST(SimplexDeadline, ToStringCoversTimedOut) {
  EXPECT_STREQ(solver::to_string(solver::LpStatus::kTimedOut), "timed-out");
  EXPECT_STREQ(solver::to_string(solver::SolveStatus::kTimedOut), "timed-out");
}

TEST(SimplexDeadline, PreExpiredDeadlineTimesOutWithBasis) {
  util::ScopedFakeClock clock(10.0);
  solver::Model m;
  build_packing_lp(m, 40, 30, 11);
  m.simplex_options().deadline = util::Deadline::at(5.0);  // already past
  const auto r = m.solve();
  EXPECT_EQ(r.status, solver::SolveStatus::kTimedOut);
  // Not a hard failure: the best (here: initial) basis is still reported so
  // the caller can warm-start a retry.
  EXPECT_FALSE(r.basis.empty());
}

TEST(SimplexDeadline, UnbudgetedSolveIgnoresTheClockEntirely) {
  // No deadline set => the solve must not consult the clock at all (this is
  // what keeps unbudgeted runs bit-identical to the pre-deadline repo). An
  // auto-advancing fake clock makes any stray read visible as elapsed time.
  util::ScopedFakeClock clock(0.0);
  clock.set_auto_advance(1.0);
  solver::Model m;
  build_packing_lp(m, 40, 30, 11);
  const auto r = m.solve();
  EXPECT_EQ(r.status, solver::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(clock.now_s(), 0.0);
}

TEST(SimplexDeadline, AmbientGuardsComposeByEarliestExpiry) {
  util::ScopedFakeClock clock(0.0);
  EXPECT_FALSE(solver::ScopedSolveDeadline::active_deadline().is_set());
  solver::ScopedSolveDeadline outer(util::Deadline::at(5.0));
  {
    solver::ScopedSolveDeadline looser(util::Deadline::at(8.0));
    // An inner guard can never loosen the outer budget.
    EXPECT_DOUBLE_EQ(solver::ScopedSolveDeadline::active_deadline().expiry_s(),
                     5.0);
    solver::ScopedSolveDeadline tighter(util::Deadline::at(3.0));
    EXPECT_DOUBLE_EQ(solver::ScopedSolveDeadline::active_deadline().expiry_s(),
                     3.0);
  }
  EXPECT_DOUBLE_EQ(solver::ScopedSolveDeadline::active_deadline().expiry_s(),
                   5.0);
}

TEST(SimplexDeadline, TimeoutIsCountedOnEveryGuardInTheChain) {
  util::ScopedFakeClock clock(10.0);
  solver::ScopedSolveDeadline run_guard(util::Deadline::at(5.0));
  {
    solver::ScopedSolveDeadline rung_guard(util::Deadline::at(7.0));
    solver::Model m;
    build_packing_lp(m, 30, 20, 3);
    const auto r = m.solve();  // no per-solve deadline; ambient one applies
    EXPECT_EQ(r.status, solver::SolveStatus::kTimedOut);
    EXPECT_EQ(rung_guard.timeouts(), 1);
  }
  EXPECT_EQ(run_guard.timeouts(), 1);
}

TEST(SimplexDeadline, BestBasisWarmStartsTheRetry) {
  // Cold reference: how many pivots the LP takes with no budget.
  solver::Model cold;
  build_packing_lp(cold, 60, 48, 23);
  const auto full = cold.solve();
  ASSERT_EQ(full.status, solver::SolveStatus::kOptimal);
  ASSERT_GT(full.simplex_iterations, 12);

  // Budgeted attempt: every deadline check costs one fake-clock read of 1s
  // and the solve checks every pivot, so a budget of (cold pivots - 4) stops
  // the solve deterministically a few pivots short of optimal.
  solver::SolveResult partial;
  {
    util::ScopedFakeClock clock(0.0);
    clock.set_auto_advance(1.0);
    solver::Model m;
    build_packing_lp(m, 60, 48, 23);
    m.simplex_options().deadline =
        util::Deadline::after(full.simplex_iterations - 4 + 0.5);
    m.simplex_options().deadline_check_interval = 1;
    partial = m.solve();
    ASSERT_EQ(partial.status, solver::SolveStatus::kTimedOut);
    ASSERT_FALSE(partial.basis.empty());
    EXPECT_LT(partial.simplex_iterations, full.simplex_iterations);
  }

  // Retry from the partial basis: same optimum, strictly fewer pivots than
  // the cold solve — the timed-out work was not thrown away.
  solver::Model retry;
  build_packing_lp(retry, 60, 48, 23);
  const auto warm = retry.solve(&partial.basis);
  ASSERT_EQ(warm.status, solver::SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_DOUBLE_EQ(warm.objective, full.objective);
  EXPECT_LT(warm.simplex_iterations, full.simplex_iterations);
}

// --- timed-out TE solves are thread-count invariant --------------------------

struct TeWorkload {
  topo::Network net;
  std::vector<traffic::TrafficMatrix> matrices;
  std::vector<scenario::Scenario> scenarios;
  te::TunnelParams tunnels;
  std::unique_ptr<te::TeInput> input;

  TeWorkload() : net(topo::build_b4()) {
    util::Rng rng(404);
    traffic::TrafficParams tp;
    tp.num_matrices = 1;
    matrices = traffic::generate_traffic(net, tp, rng);
    scenario::ScenarioParams sp;
    sp.probability_cutoff = 0.005;
    auto set = scenario::generate_scenarios(net, sp, rng);
    scenarios = scenario::remove_disconnecting(net, set.scenarios);
    tunnels.tunnels_per_flow = 4;
    input = std::make_unique<te::TeInput>(net, matrices[0], scenarios, tunnels);
    input->scale_demands(te::max_satisfiable_scale(*input) * 0.6);
  }
};

TEST(SimplexDeadline, TimedOutTeSolveIsThreadCountInvariant) {
  TeWorkload w;
  te::ArrowParams params;
  params.tickets.num_tickets = 4;
  util::ThreadPool prep_pool(1);
  util::Rng prep_rng(99);
  const auto prepared = te::prepare_arrow(*w.input, params, prep_rng, prep_pool);

  // Under a frozen clock and a pre-expired ambient deadline, every LP the TE
  // solve issues times out at its first deadline check. The degraded result
  // must still be a bit-identical function of the input at any thread count
  // (the pool only parallelizes the model build, never the pivoting).
  te::TeSolution base;
  int base_timeouts = -1;
  bool have_base = false;
  for (int threads : {1, 2, 8}) {
    util::ScopedFakeClock clock(100.0);
    solver::ScopedSolveDeadline guard(util::Deadline::at(0.0));
    util::ThreadPool pool(threads);
    const te::TeSolution got = te::solve_arrow(*w.input, prepared, params, pool);
    EXPECT_FALSE(got.optimal) << "threads=" << threads;
    EXPECT_GT(guard.timeouts(), 0) << "threads=" << threads;
    if (!have_base) {
      base = got;
      base_timeouts = guard.timeouts();
      have_base = true;
      continue;
    }
    EXPECT_EQ(guard.timeouts(), base_timeouts) << "threads=" << threads;
    EXPECT_EQ(got.objective, base.objective) << "threads=" << threads;
    EXPECT_EQ(got.simplex_iterations, base.simplex_iterations)
        << "threads=" << threads;
    EXPECT_EQ(got.admitted, base.admitted) << "threads=" << threads;
    ASSERT_EQ(got.alloc.size(), base.alloc.size()) << "threads=" << threads;
    for (std::size_t f = 0; f < base.alloc.size(); ++f) {
      EXPECT_EQ(got.alloc[f], base.alloc[f])
          << "flow " << f << " threads=" << threads;
    }
  }
}

// --- the ladder under a shrinking budget -------------------------------------

class LadderFixture : public ::testing::Test {
 protected:
  LadderFixture() : net_(topo::build_b4()) {
    util::Rng rng(7);
    traffic::TrafficParams tp;
    tp.num_matrices = 2;
    tms_ = traffic::generate_traffic(net_, tp, rng);
    config_.horizon_s = 2.0 * 3600.0;
    config_.te_interval_s = 600.0;
    config_.tunnels.tunnels_per_flow = 4;
    config_.arrow.tickets.num_tickets = 4;
    config_.scenarios.probability_cutoff = 0.002;
    config_.demand_scale = 0.5;
    config_.scheme = "ARROW";
  }
  topo::Network net_;
  std::vector<traffic::TrafficMatrix> tms_;
  ctrl::ControllerConfig config_;
};

TEST_F(LadderFixture, ShrinkingBudgetDegradesButEveryPeriodIsServed) {
  // Every clock read costs 50 virtual ms against a 200ms period budget: the
  // primary rung's share (half) dies within a couple of deadline checks, the
  // relaxed retry and FFC rungs likewise, and the ladder must land on the
  // closed-form rungs — never on "no plan".
  util::ScopedFakeClock clock(0.0);
  clock.set_auto_advance(0.05);
  config_.te_budget_s = 0.2;
  util::Rng rng(5);
  const auto report = ctrl::run_controller(net_, tms_, {}, config_, rng);

  ASSERT_GT(report.te_runs, 0);
  int served = 0;
  for (int c : report.fallback_counts) served += c;
  EXPECT_EQ(served, report.te_runs);  // every period attributed to a rung
  EXPECT_EQ(report.fallback_counts[static_cast<int>(ctrl::Rung::kPrimary)], 0);
  EXPECT_GT(report.solver_timeouts, 0);
  EXPECT_GT(report.degraded_periods, 0);
  EXPECT_GT(report.deadline_overruns, 0);
  EXPECT_EQ(static_cast<int>(report.rung_by_matrix.size()), report.te_runs);
  EXPECT_FALSE(report.canceled);
}

TEST_F(LadderFixture, GenerousBudgetStaysOnThePrimaryRung) {
  // Frozen clock: deadlines exist but never expire, so the enforced budget
  // changes nothing relative to an unbudgeted run.
  util::ScopedFakeClock clock(0.0);
  config_.te_budget_s = 3600.0;
  util::Rng rng(5);
  const auto report = ctrl::run_controller(net_, tms_, {}, config_, rng);

  ASSERT_GT(report.te_runs, 0);
  EXPECT_EQ(report.fallback_counts[static_cast<int>(ctrl::Rung::kPrimary)],
            report.te_runs);
  EXPECT_EQ(report.solver_timeouts, 0);
  EXPECT_EQ(report.degraded_periods, 0);
}

TEST_F(LadderFixture, CancellationDrainsGracefully) {
  int polls = 0;
  // Cancel after the first matrix: the remaining periods must be served by
  // the closed-form rungs with no further LP work, and the run must still
  // complete its accounting.
  config_.cancel = [&polls]() { return ++polls > 1; };
  util::Rng rng(5);
  const auto report = ctrl::run_controller(net_, tms_, {}, config_, rng);

  ASSERT_GT(report.te_runs, 1);
  EXPECT_TRUE(report.canceled);
  int served = 0;
  for (int c : report.fallback_counts) served += c;
  EXPECT_EQ(served, report.te_runs);
  // At least one period ran before the cancel fired...
  EXPECT_GT(report.fallback_counts[static_cast<int>(ctrl::Rung::kPrimary)], 0);
  // ...and at least one after it, on a closed-form rung.
  const int closed_form =
      report.fallback_counts[static_cast<int>(ctrl::Rung::kCarryForward)] +
      report.fallback_counts[static_cast<int>(ctrl::Rung::kEcmp)];
  EXPECT_GT(closed_form, 0);
}

}  // namespace
}  // namespace arrow

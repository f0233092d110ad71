// Pricing-mode parity and warm-retry accounting on TE-derived LPs.
//
// The corpus is captured with a ScopedSolveObserver during a real
// solve_arrow run (Phase I + Phase II LPs included), so every pricing mode
// is exercised on the exact LPs the paper's pipeline produces, not
// synthetic toys. kDantzig is the oracle: it keeps
// no incremental state, so agreement with it validates the maintained
// reduced costs and Devex weights of kIncremental.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "solver/lp.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"

namespace arrow::solver {
namespace {

// Small TE instance whose solve_arrow run donates its LPs.
class PricingCorpus : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (corpus_ != nullptr) return;
    corpus_ = new std::vector<Lp>();
    const topo::Network net = topo::build_b4();
    util::Rng rng(77);
    traffic::TrafficParams tp;
    tp.num_matrices = 1;
    const auto ms = traffic::generate_traffic(net, tp, rng);
    scenario::ScenarioParams sp;
    sp.probability_cutoff = 0.002;
    auto set = scenario::generate_scenarios(net, sp, rng);
    const auto scenarios = scenario::remove_disconnecting(net, set.scenarios);
    te::TunnelParams tun;
    tun.tunnels_per_flow = 4;
    te::TeInput input(net, ms[0], scenarios, tun);
    input.scale_demands(te::max_satisfiable_scale(input));
    input.scale_demands(0.9);
    te::ArrowParams params;
    params.tickets.num_tickets = 3;
    const auto prepared = te::prepare_arrow(input, params, rng);
    {
      ScopedSolveObserver capture([](const Lp& lp, LpSolution& sol) {
        (void)sol;
        if (corpus_->size() < 8) corpus_->push_back(lp);
      });
      const auto sol = te::solve_arrow(input, prepared, params);
      ASSERT_TRUE(sol.optimal);
    }
    ASSERT_FALSE(corpus_->empty());
  }

  static std::vector<Lp>* corpus_;
};

std::vector<Lp>* PricingCorpus::corpus_ = nullptr;

TEST_F(PricingCorpus, AllPricingModesReachTheSameOptimum) {
  for (std::size_t i = 0; i < corpus_->size(); ++i) {
    const Lp& lp = (*corpus_)[i];
    SimplexOptions base;
    const LpSolution oracle = solve_lp(lp, [&] {
      SimplexOptions o = base;
      o.pricing = Pricing::kDantzig;
      return o;
    }());
    ASSERT_EQ(oracle.status, LpStatus::kOptimal) << "lp " << i;
    SimplexOptions opt = base;
    opt.pricing = Pricing::kIncremental;
    const LpSolution sol = solve_lp(lp, opt);
    ASSERT_EQ(sol.status, LpStatus::kOptimal) << "lp " << i;
    const double scale = 1.0 + std::abs(oracle.objective);
    EXPECT_LT(std::abs(sol.objective - oracle.objective), 1e-6 * scale)
        << "lp " << i;
    EXPECT_LT(primal_violation(lp, sol.x), 1e-6) << "lp " << i;
    // The returned basis must be a genuine vertex of the full-space LP.
    EXPECT_EQ(sol.basis.num_basic(), lp.a.rows) << "lp " << i;
  }
}

TEST_F(PricingCorpus, IncrementalPricingDoesLessWorkThanDantzig) {
  // Updating reduced costs from the pivot row must price fewer columns than
  // the full-recomputation oracle on the corpus in aggregate — that is the
  // default mode's reason to exist.
  long long dantzig = 0, incremental = 0;
  for (const Lp& lp : *corpus_) {
    SimplexOptions opt;
    opt.pricing = Pricing::kDantzig;
    dantzig += solve_lp(lp, opt).pricing_candidates;
    opt.pricing = Pricing::kIncremental;
    incremental += solve_lp(lp, opt).pricing_candidates;
  }
  EXPECT_GT(dantzig, 0);
  EXPECT_LT(incremental, dantzig);
}

// Hand-built computational-form LP: structural columns first, one identity
// slack per row appended last (the invariant Model::build_lp guarantees).
Lp single_row_lp(double x_lb, double x_ub, double cost, double rhs) {
  Lp lp;
  lp.a.rows = 1;
  lp.a.cols = 2;
  lp.a.col_start = {0, 1, 2};
  lp.a.row_index = {0, 0};
  lp.a.value = {1.0, 1.0};
  lp.cost = {cost, 0.0};
  lp.lower = {x_lb, 0.0};
  lp.upper = {x_ub, kInf};
  lp.rhs = {rhs};
  return lp;
}

TEST(SingleRowLp, BoundsThatContradictTheRowAreInfeasible) {
  // x in [0,10] but x + s = -1 with s >= 0 forces x <= -1: infeasible.
  const Lp lp = single_row_lp(0.0, 10.0, 1.0, -1.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(WarmRetry, FailedWarmAttemptSecondsAreSummedIntoTheRetry) {
  // A warm-started solve that collapses with numerical error is retried
  // cold; the retry must ADD the failed attempt's phase clocks (1.0 s each,
  // injected) instead of overwriting them.
  const Lp lp = single_row_lp(0.0, 5.0, -1.0, 3.0);
  SimplexOptions opt;
  const LpSolution cold = solve_lp(lp, opt);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);

  opt.fail_warm_start_for_test = true;
  const LpSolution retried = solve_lp(lp, opt, &cold.basis);
  EXPECT_EQ(retried.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(retried.objective, cold.objective);
  EXPECT_GE(retried.phase1_seconds, 1.0);
  EXPECT_GE(retried.phase2_seconds, 1.0);
  // The retry ran cold, so the result must not claim a warm start.
  EXPECT_FALSE(retried.warm_started);
}

}  // namespace
}  // namespace arrow::solver

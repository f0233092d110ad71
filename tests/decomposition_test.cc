// Phase I decomposition (Benders-style price-and-cut) and the bugfixes it
// flushed out:
//
//   * solve_arrow with ArrowParams::decomposition enabled must agree with
//     the monolithic Phase I — same winners, byte-identical Phase II — and
//     the evaluation sweep's scientific output must not move at all;
//   * Phase I winner selection must be order-independent (the old incumbent
//     scan's +-1e-9 tolerance was non-transitive);
//   * a faulted master LP must fail the whole ARROW solve and be visible in
//     SweepResult::solve_failures;
//   * the per-solution telemetry totals must equal the exact sum over every
//     LP attempt: the master rounds plus Phase II.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "controller/controller.h"
#include "sim/sweep.h"
#include "solver/lp.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace arrow {
namespace {

// Same workload as determinism_test.cc: B4, one calibrated matrix, the
// post-cutoff scenario set.
struct Workload {
  topo::Network net;
  std::vector<traffic::TrafficMatrix> matrices;
  std::vector<scenario::Scenario> scenarios;
  te::TunnelParams tunnels;
  std::unique_ptr<te::TeInput> input;

  Workload() : net(topo::build_b4()) {
    util::Rng rng(404);
    traffic::TrafficParams tp;
    tp.num_matrices = 1;
    matrices = traffic::generate_traffic(net, tp, rng);
    scenario::ScenarioParams sp;
    sp.probability_cutoff = 0.005;
    auto set = scenario::generate_scenarios(net, sp, rng);
    scenarios = scenario::remove_disconnecting(net, set.scenarios);
    tunnels.tunnels_per_flow = 5;
    input = std::make_unique<te::TeInput>(net, matrices[0], scenarios, tunnels);
    input->scale_demands(te::max_satisfiable_scale(*input) * 0.6);
  }

  te::ArrowParams arrow_params(bool decomposition) const {
    te::ArrowParams params;
    params.tickets.num_tickets = 4;
    params.decomposition.enabled = decomposition;
    return params;
  }
};

// ---- select_phase1_winner: the order-dependence regression ----------------

TEST(WinnerSelection, NonTransitiveSlackChainIsResolvedSetWise) {
  // The chain that broke the old incumbent scan: adjacent slacks are within
  // the 1e-9 tie tolerance but the endpoints are not. Scanning forward the
  // incumbent walked 0 -> 1 -> 2 and crowned candidate 2, whose slack is
  // OUTSIDE the true tie set around the minimum. The set-wise rule fixes the
  // tie set {0, 1} first and only then maximizes restored capacity.
  const std::vector<double> slack = {0.0, 0.9e-9, 1.8e-9};
  const std::vector<double> gbps = {1.0, 2.0, 3.0};
  const std::vector<double> budget = {100.0, 100.0, 100.0};
  EXPECT_EQ(te::select_phase1_winner(slack, gbps, budget), 1);

  // Reversed candidate order must pick the same candidate (now at index 1 by
  // symmetry: slack 0.9e-9, gbps 2).
  const std::vector<double> rslack = {1.8e-9, 0.9e-9, 0.0};
  const std::vector<double> rgbps = {3.0, 2.0, 1.0};
  const int rwin = te::select_phase1_winner(rslack, rgbps, budget);
  ASSERT_GE(rwin, 0);
  EXPECT_EQ(rslack[static_cast<std::size_t>(rwin)], 0.9e-9);
  EXPECT_EQ(rgbps[static_cast<std::size_t>(rwin)], 2.0);
}

TEST(WinnerSelection, BudgetRestrictsTheCandidateSetWhenAnyoneIsInside) {
  // Candidate 0 blows its budget; candidate 1 is inside. The in-budget set
  // wins even though 0 has strictly less slack.
  EXPECT_EQ(te::select_phase1_winner({1.0, 2.0}, {9.0, 1.0}, {0.5, 3.0}), 1);
  // Nobody in budget: fall back to the full set, minimum slack wins.
  EXPECT_EQ(te::select_phase1_winner({1.0, 2.0}, {9.0, 1.0}, {0.1, 0.1}), 0);
  EXPECT_EQ(te::select_phase1_winner({}, {}, {}), -1);
}

TEST(WinnerSelection, ExactDuplicateOfTheWinnerNeverStealsTheSlot) {
  const std::vector<double> slack = {3.0, 1.0, 2.0};
  const std::vector<double> gbps = {5.0, 7.0, 6.0};
  const std::vector<double> budget = {10.0, 10.0, 10.0};
  const int base = te::select_phase1_winner(slack, gbps, budget);
  ASSERT_EQ(base, 1);
  // Append a byte-for-byte copy of the winner: exact ties break toward the
  // lowest index, so the original keeps the slot at every thread count and
  // candidate order.
  std::vector<double> slack2 = slack, gbps2 = gbps, budget2 = budget;
  slack2.push_back(slack[1]);
  gbps2.push_back(gbps[1]);
  budget2.push_back(budget[1]);
  EXPECT_EQ(te::select_phase1_winner(slack2, gbps2, budget2), base);
}

TEST(WinnerSelection, RandomizedSetInvariantsHold) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_u64() % 8);
    std::vector<double> slack, gbps, budget;
    for (int i = 0; i < n; ++i) {
      // Mix exact ties and near-ties into the slack values.
      const double s = rng.bernoulli(0.3)
                           ? 0.5e-9 * static_cast<double>(rng.next_u64() % 4)
                           : rng.uniform(0.0, 2.0);
      slack.push_back(s);
      gbps.push_back(rng.uniform(0.0, 10.0));
      budget.push_back(rng.uniform(0.0, 2.0));
    }
    const int w = te::select_phase1_winner(slack, gbps, budget);
    ASSERT_GE(w, 0);
    ASSERT_LT(w, n);
    // The candidate set the rule restricted itself to.
    bool any_in_budget = false;
    for (int i = 0; i < n; ++i) {
      any_in_budget = any_in_budget || slack[static_cast<std::size_t>(i)] <=
                                           budget[static_cast<std::size_t>(i)];
    }
    auto in_set = [&](int i) {
      return !any_in_budget || slack[static_cast<std::size_t>(i)] <=
                                   budget[static_cast<std::size_t>(i)];
    };
    ASSERT_TRUE(in_set(w)) << "trial " << trial;
    double min_slack = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      if (in_set(i)) {
        min_slack = std::min(min_slack, slack[static_cast<std::size_t>(i)]);
      }
    }
    // Winner sits inside the tie window of the set minimum...
    EXPECT_LE(slack[static_cast<std::size_t>(w)], min_slack + 1e-9)
        << "trial " << trial;
    // ...and no tie-set member strictly beats its restored capacity.
    for (int i = 0; i < n; ++i) {
      if (in_set(i) && slack[static_cast<std::size_t>(i)] <= min_slack + 1e-9) {
        EXPECT_LE(gbps[static_cast<std::size_t>(i)],
                  gbps[static_cast<std::size_t>(w)] + 1e-9)
            << "trial " << trial << " candidate " << i;
      }
    }
  }
}

// ---- decomposed vs monolithic equivalence ---------------------------------

TEST(Decomposition, SolveArrowAgreesWithMonolithicExactly) {
  Workload w;
  util::ThreadPool pool(2);
  util::Rng rng(99);
  const auto prepared =
      te::prepare_arrow(*w.input, w.arrow_params(false), rng, pool);
  const te::RestorabilityCache cache(*w.input, prepared, pool);

  const te::TeSolution mono = te::solve_arrow(*w.input, prepared,
                                              w.arrow_params(false), pool,
                                              &cache);
  const te::TeSolution deco = te::solve_arrow(*w.input, prepared,
                                              w.arrow_params(true), pool,
                                              &cache);
  ASSERT_TRUE(mono.optimal);
  ASSERT_TRUE(deco.optimal);

  // Same winners => identical Phase II model => the cold solves produce the
  // exact same doubles, not merely close ones.
  EXPECT_EQ(deco.winner, mono.winner);
  EXPECT_EQ(deco.objective, mono.objective);
  EXPECT_EQ(deco.admitted, mono.admitted);
  EXPECT_EQ(deco.alloc, mono.alloc);
  ASSERT_EQ(deco.restored.size(), mono.restored.size());
  for (std::size_t q = 0; q < mono.restored.size(); ++q) {
    EXPECT_EQ(deco.restored[q], mono.restored[q]) << "scenario " << q;
  }

  // The decomposed path actually ran its machinery (and the monolithic path
  // reports none of it).
  EXPECT_GT(deco.decomposition_rounds, 0);
  EXPECT_EQ(mono.decomposition_rounds, 0);
  EXPECT_EQ(mono.decomposition_cuts, 0);
}

TEST(Decomposition, Phase1WinnersMatchAndTrajectoryIsThreadCountInvariant) {
  Workload w;
  util::ThreadPool pool1(1);
  util::Rng rng(99);
  const auto prepared =
      te::prepare_arrow(*w.input, w.arrow_params(false), rng, pool1);
  const te::RestorabilityCache cache(*w.input, prepared, pool1);

  const te::Phase1Result mono = te::solve_phase1(
      *w.input, prepared, w.arrow_params(false), pool1, &cache);
  const te::Phase1Result base = te::solve_phase1(
      *w.input, prepared, w.arrow_params(true), pool1, &cache);
  ASSERT_TRUE(mono.optimal);
  ASSERT_TRUE(base.optimal);
  EXPECT_FALSE(mono.decomposed);
  EXPECT_TRUE(base.decomposed);
  EXPECT_EQ(base.winners, mono.winners);
  EXPECT_GT(base.decomposition_rounds, 0);

  // The decomposition's control flow is a pure function of master solutions
  // extracted on the calling thread: every number it reports — rounds, cuts,
  // iterations, the winners — is byte-identical at any thread count.
  for (int threads : {2, 8}) {
    util::ThreadPool pool(threads);
    const te::Phase1Result got = te::solve_phase1(
        *w.input, prepared, w.arrow_params(true), pool, &cache);
    ASSERT_TRUE(got.optimal) << "threads=" << threads;
    EXPECT_EQ(got.winners, base.winners) << "threads=" << threads;
    EXPECT_EQ(got.objective, base.objective) << "threads=" << threads;
    EXPECT_EQ(got.decomposition_rounds, base.decomposition_rounds)
        << "threads=" << threads;
    EXPECT_EQ(got.decomposition_cuts, base.decomposition_cuts)
        << "threads=" << threads;
    EXPECT_EQ(got.simplex_iterations, base.simplex_iterations)
        << "threads=" << threads;
  }
}

TEST(Decomposition, SweepOutputIsByteIdenticalDecompositionOnOrOff) {
  Workload w;
  sim::SweepParams params;
  params.scales = {0.4, 0.8};
  params.schemes = {"ARROW"};  // Phase I is the only thing under test
  params.tunnels = w.tunnels;
  params.arrow.tickets.num_tickets = 4;

  util::ThreadPool pool1(1);
  util::Rng rng_off(31);
  const auto off =
      sim::run_sweep(w.net, w.matrices, w.scenarios, params, rng_off, pool1);
  ASSERT_EQ(off.total_solve_failures(), 0);

  params.arrow.decomposition.enabled = true;
  sim::SweepResult on_base;
  for (int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    util::Rng rng(31);
    const auto on =
        sim::run_sweep(w.net, w.matrices, w.scenarios, params, rng, pool);
    // The scientific output does not move when the decomposition flips on:
    // byte-identical availability/throughput and zero solve failures.
    // simplex_iterations legitimately differs across the on/off modes (a
    // different set of LPs runs) — see the sweep.h contract.
    EXPECT_EQ(on.availability.at("ARROW"), off.availability.at("ARROW"))
        << "threads=" << threads;
    EXPECT_EQ(on.throughput.at("ARROW"), off.throughput.at("ARROW"))
        << "threads=" << threads;
    EXPECT_EQ(on.solve_failures.at("ARROW"), off.solve_failures.at("ARROW"))
        << "threads=" << threads;
    // Within the decomposed mode the pivot trail IS thread-count invariant.
    if (threads == 1) {
      on_base = on;
    } else {
      EXPECT_EQ(on.simplex_iterations.at("ARROW"),
                on_base.simplex_iterations.at("ARROW"))
          << "threads=" << threads;
      EXPECT_EQ(on.availability.at("ARROW"), on_base.availability.at("ARROW"))
          << "threads=" << threads;
    }
  }
}

// ---- master-LP failure surfacing ------------------------------------------

// The master is the decomposition's only tagged solve (kMasterBasisTag): the
// monolithic Phase I and Phase II run untagged, so a nonzero ambient tag
// picks out master rounds. Masters run on the calling thread, where the
// observer sees them.
bool is_master_lp() { return solver::ScopedBasisTag::active() != 0; }

TEST(Decomposition, FaultedMasterLpFailsTheWholeSolve) {
  Workload w;
  const te::ArrowParams params = w.arrow_params(true);
  util::ThreadPool pool(1);
  util::Rng rng(99);
  const auto prepared = te::prepare_arrow(*w.input, params, rng, pool);
  const te::RestorabilityCache cache(*w.input, prepared, pool);

  int faulted = 0;
  solver::ScopedSolveObserver observer(
      [&](const solver::Lp&, solver::LpSolution& solution) {
        if (faulted == 0 && is_master_lp()) {
          ++faulted;
          solution.status = solver::LpStatus::kNumericalError;
        }
      });
  const te::TeSolution sol =
      te::solve_arrow(*w.input, prepared, params, pool, &cache);
  ASSERT_EQ(faulted, 1);
  // A failed master round ends Phase I there, with optimal false: the same
  // all-or-nothing contract as a failed monolithic Phase I LP.
  EXPECT_EQ(sol.decomposition_rounds, 1);
  EXPECT_FALSE(sol.optimal);
}

TEST(Decomposition, FaultedMasterLpLandsInSweepSolveFailures) {
  Workload w;
  sim::SweepParams params;
  params.scales = {0.4, 0.8};
  params.schemes = {"ARROW"};
  params.tunnels = w.tunnels;
  params.arrow.tickets.num_tickets = 4;
  params.arrow.decomposition.enabled = true;

  util::ThreadPool pool(1);  // sweep chains inline => the hook sees masters
  int faulted = 0;
  solver::ScopedSolveObserver observer(
      [&](const solver::Lp&, solver::LpSolution& solution) {
        if (is_master_lp()) {
          ++faulted;
          solution.status = solver::LpStatus::kNumericalError;
        }
      });
  util::Rng rng(31);
  const auto got =
      sim::run_sweep(w.net, w.matrices, w.scenarios, params, rng, pool);
  ASSERT_GT(faulted, 0);
  // Every ARROW solve hit a poisoned master, so every (scheme, scale) slot
  // reports its failure instead of averaging a zero into the curve.
  const std::vector<int> expect_failed(params.scales.size(), 1);
  EXPECT_EQ(got.solve_failures.at("ARROW"), expect_failed);
  EXPECT_EQ(got.total_solve_failures(),
            static_cast<long long>(params.scales.size()));
  for (double a : got.availability.at("ARROW")) EXPECT_EQ(a, 0.0);
}

// ---- telemetry aggregation ------------------------------------------------

TEST(Decomposition, TelemetryTotalsEqualTheSumOverEveryLpAttempt) {
  Workload w;
  const te::ArrowParams params = w.arrow_params(true);
  util::ThreadPool pool(1);  // inline: the observer sees every solve_lp
  util::Rng rng(99);
  const auto prepared = te::prepare_arrow(*w.input, params, rng, pool);
  const te::RestorabilityCache cache(*w.input, prepared, pool);

  long long iterations = 0, pricing = 0;
  int solves = 0;
  te::TeSolution sol;
  {
    solver::ScopedSolveObserver observer(
        [&](const solver::Lp&, solver::LpSolution& solution) {
          ++solves;
          iterations += solution.iterations;
          pricing += solution.pricing_candidates;
        });
    sol = te::solve_arrow(*w.input, prepared, params, pool, &cache);
  }
  ASSERT_TRUE(sol.optimal);
  // Master rounds + Phase II, and nothing else: the totals the solution
  // reports are the exact sum of what the solver returned per attempt — not
  // approximately, exactly.
  EXPECT_EQ(static_cast<long long>(sol.simplex_iterations), iterations);
  EXPECT_EQ(sol.pricing_candidates, pricing);
  // Every master round was a real solve_lp call, and Phase II one more.
  EXPECT_EQ(solves, sol.decomposition_rounds + 1);
}

// ---- warm-start chaining --------------------------------------------------

TEST(Decomposition, MasterBasesChainThroughTheWarmStartCache) {
  Workload w;
  const te::ArrowParams params = w.arrow_params(true);
  util::ThreadPool pool(1);
  util::Rng rng(99);
  const auto prepared = te::prepare_arrow(*w.input, params, rng, pool);
  const te::RestorabilityCache cache(*w.input, prepared, pool);

  solver::ScopedWarmStartCache warm;
  const te::TeSolution first =
      te::solve_arrow(*w.input, prepared, params, pool, &cache);
  const int hits_after_first = warm.hits();
  ASSERT_TRUE(first.optimal);
  EXPECT_GT(warm.stores(), 0);

  const te::TeSolution second =
      te::solve_arrow(*w.input, prepared, params, pool, &cache);
  ASSERT_TRUE(second.optimal);
  // The re-solve warm-started from the first solve's bases (the tagged
  // master entries and Phase II's untagged one)...
  EXPECT_GT(warm.hits(), hits_after_first);
  // ...and warm-starting changed only the pivot path, never the selection or
  // the objective. (The Phase II *vertex* may legally move to an alternate
  // optimum when started from a stored basis, so alloc is not compared.)
  EXPECT_EQ(second.winner, first.winner);
  EXPECT_NEAR(second.objective, first.objective,
              1e-6 * (1.0 + std::abs(first.objective)));
}

TEST(Decomposition, CrossThreadMasterSolvesShareTheChainCache) {
  // Same as above but with real pool workers running the pricing fan-out
  // between master rounds: the master chain must warm-start the same way,
  // and the answer must still match inline mode.
  Workload w;
  const te::ArrowParams params = w.arrow_params(true);
  util::ThreadPool inline_pool(1);
  util::ThreadPool workers(8);
  util::Rng rng(99);
  const auto prepared = te::prepare_arrow(*w.input, params, rng, inline_pool);
  const te::RestorabilityCache cache(*w.input, prepared, inline_pool);

  te::Phase1Result base_first, base_second;
  {
    solver::ScopedWarmStartCache warm;
    base_first =
        te::solve_phase1(*w.input, prepared, params, inline_pool, &cache);
    base_second =
        te::solve_phase1(*w.input, prepared, params, inline_pool, &cache);
  }
  solver::ScopedWarmStartCache warm;
  const te::Phase1Result first =
      te::solve_phase1(*w.input, prepared, params, workers, &cache);
  const int hits_after_first = warm.hits();
  const te::Phase1Result second =
      te::solve_phase1(*w.input, prepared, params, workers, &cache);
  ASSERT_TRUE(first.optimal);
  ASSERT_TRUE(second.optimal);
  EXPECT_GT(warm.hits(), hits_after_first);
  // Bit-identical to the inline-pool chain, warm-start traffic included:
  // where a solve starts must never change where it ends.
  EXPECT_EQ(first.winners, base_first.winners);
  EXPECT_EQ(first.objective, base_first.objective);
  EXPECT_EQ(first.simplex_iterations, base_first.simplex_iterations);
  EXPECT_EQ(second.winners, base_second.winners);
  EXPECT_EQ(second.objective, base_second.objective);
  EXPECT_EQ(second.simplex_iterations, base_second.simplex_iterations);
}

// ---- controller surfacing -------------------------------------------------

TEST(Decomposition, ControllerReportCarriesDecompositionTotals) {
  topo::Network net = topo::build_b4();
  util::Rng traffic_rng(7);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto tms = traffic::generate_traffic(net, tp, traffic_rng);

  ctrl::ControllerConfig config;
  config.scheme = "ARROW";
  config.horizon_s = 600.0;
  config.te_interval_s = 600.0;
  config.tunnels.tunnels_per_flow = 4;
  config.arrow.tickets.num_tickets = 4;
  config.arrow.decomposition.enabled = true;
  config.scenarios.probability_cutoff = 0.002;
  config.demand_scale = 0.5;

  util::Rng rng(1);
  const auto report = ctrl::run_controller(net, tms, {}, config, rng);
  EXPECT_GT(report.te_runs, 0);
  // The decomposed Phase I ran and its totals flowed through the ladder
  // accounting into the report and its serialized form.
  EXPECT_GT(report.decomposition_rounds, 0);
  obs::RunReport written;
  ASSERT_TRUE(obs::RunReport::from_json(report.to_json(), &written));
  EXPECT_EQ(written.decomposition_rounds, report.decomposition_rounds);
  EXPECT_EQ(written.decomposition_cuts, report.decomposition_cuts);
}

}  // namespace
}  // namespace arrow

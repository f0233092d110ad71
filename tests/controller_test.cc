// Tests for the event-driven WAN controller simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "controller/controller.h"
#include "controller/ladder.h"
#include "schemes/scheme.h"
#include "solver/lp.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "util/parallel.h"

namespace arrow::ctrl {
namespace {

class ControllerFixture : public ::testing::Test {
 protected:
  ControllerFixture() : net_(topo::build_b4()) {
    util::Rng rng(7);
    traffic::TrafficParams tp;
    tp.num_matrices = 2;
    tms_ = traffic::generate_traffic(net_, tp, rng);
    config_.horizon_s = 2.0 * 3600.0;  // two hours
    config_.te_interval_s = 600.0;
    config_.tunnels.tunnels_per_flow = 4;
    config_.arrow.tickets.num_tickets = 4;
    config_.scenarios.probability_cutoff = 0.002;
    config_.demand_scale = 0.5;
  }
  topo::Network net_;
  std::vector<traffic::TrafficMatrix> tms_;
  ControllerConfig config_;
};

TEST_F(ControllerFixture, NoFailuresMeansFullAvailabilityAtLowLoad) {
  util::Rng rng(1);
  config_.scheme = "FFC-1";
  config_.demand_scale = 0.15;  // low enough for FFC-1 to admit everything
  const auto report = run_controller(net_, tms_, {}, config_, rng);
  EXPECT_GT(report.offered_gbps_seconds, 0.0);
  EXPECT_NEAR(report.availability, 1.0, 1e-3);
  EXPECT_EQ(report.cuts_handled, 0);
  EXPECT_EQ(report.te_runs, 2);
  EXPECT_NEAR(report.lost_gbps_seconds, 0.0,
              1e-6 * report.offered_gbps_seconds);
}

TEST_F(ControllerFixture, DeliveredNeverExceedsOffered) {
  util::Rng rng(2);
  const auto trace = sample_failure_trace(net_, config_.horizon_s,
                                          /*cuts_per_day=*/12.0, rng);
  for (const std::string s : {"ARROW", "FFC-1", "ECMP"}) {
    config_.scheme = s;
    util::Rng run_rng(3);
    const auto report = run_controller(net_, tms_, trace, config_, run_rng);
    EXPECT_LE(report.delivered_gbps_seconds,
              report.offered_gbps_seconds + 1e-6)
        << s;
    EXPECT_GE(report.availability, 0.0);
    EXPECT_LE(report.availability, 1.0 + 1e-9);
  }
}

TEST_F(ControllerFixture, ArrowRestoresWhatFfcCannot) {
  // One long-lived cut on a fiber that carries traffic.
  topo::FiberId busy = 0;
  double best = 0.0;
  for (const auto& f : net_.optical.fibers) {
    const double g = net_.provisioned_gbps(f.id);
    if (g > best) {
      best = g;
      busy = f.id;
    }
  }
  std::vector<FailureEvent> trace{{600.0, busy, 3.0 * 3600.0}};
  // Guarantee a precomputed plan exists for this cut.
  config_.explicit_scenarios = {{{busy}, 0.01}};

  config_.scheme = "ARROW";
  util::Rng r1(5);
  const auto arrow_report = run_controller(net_, tms_, trace, config_, r1);
  config_.scheme = "FFC-1";
  util::Rng r2(5);
  const auto ffc_report = run_controller(net_, tms_, trace, config_, r2);

  EXPECT_EQ(arrow_report.cuts_handled, 1);
  EXPECT_EQ(arrow_report.cuts_with_plan, 1);
  EXPECT_GT(arrow_report.restoration_max_s, 0.0);
  // With restoration the delivered volume under the cut can only be higher
  // (same trace, same demand).
  EXPECT_GE(arrow_report.delivered_gbps_seconds,
            ffc_report.delivered_gbps_seconds - 1e-6);
}

// The replay answers a cut through the same handler as the daemon: under
// ReWeave-Local each cut installs a plan rewoven around it, at once, or
// after the delay hook's control-plane delay, which opens a restoration
// window whose loss counts as transient.
TEST_F(ControllerFixture, ReWeaveRepairsEveryCutInTheReplay) {
  util::Rng trace_rng(27);
  const auto trace =
      sample_failure_trace(net_, config_.horizon_s, 48.0, trace_rng);
  config_.scheme = "ReWeave-Local";
  util::Rng rng(22);
  const auto report = run_controller(net_, tms_, trace, config_, rng);
  ASSERT_GT(report.cuts_handled, 0);
  EXPECT_GT(report.local_repairs, 0);
  EXPECT_EQ(report.local_repairs, report.cuts_handled);
  EXPECT_EQ(report.restorations, report.local_repairs);
  EXPECT_GT(report.local_repair_pivots, 0);
  EXPECT_EQ(report.transient_loss_gbps_seconds, 0.0);

  config_.restoration_delay_s = [] { return 60.0; };
  util::Rng delayed_rng(22);
  const auto delayed = run_controller(net_, tms_, trace, config_, delayed_rng);
  EXPECT_EQ(delayed.local_repairs, report.local_repairs);
  EXPECT_EQ(delayed.plans_delayed, delayed.local_repairs);
  EXPECT_GT(delayed.transient_loss_gbps_seconds, 0.0);
  EXPECT_LE(delayed.transient_loss_gbps_seconds, delayed.lost_gbps_seconds);
  EXPECT_LT(delayed.delivered_gbps_seconds, report.delivered_gbps_seconds);
}

TEST_F(ControllerFixture, NoiseLoadingShrinksTransientLoss) {
  topo::FiberId busy = 0;
  double best = 0.0;
  for (const auto& f : net_.optical.fibers) {
    const double g = net_.provisioned_gbps(f.id);
    if (g > best) {
      best = g;
      busy = f.id;
    }
  }
  std::vector<FailureEvent> trace{{600.0, busy, 1.5 * 3600.0}};
  config_.explicit_scenarios = {{{busy}, 0.01}};
  config_.scheme = "ARROW";

  config_.latency.noise_loading = true;
  util::Rng r1(6);
  const auto fast = run_controller(net_, tms_, trace, config_, r1);
  config_.latency.noise_loading = false;
  util::Rng r2(6);
  const auto slow = run_controller(net_, tms_, trace, config_, r2);

  EXPECT_LT(fast.restoration_max_s, 60.0);
  EXPECT_GT(slow.restoration_max_s, 300.0);
  EXPECT_LE(fast.transient_loss_gbps_seconds,
            slow.transient_loss_gbps_seconds + 1e-6);
}

TEST_F(ControllerFixture, DeterministicGivenSeedAndTrace) {
  util::Rng trace_rng(12);
  const auto trace =
      sample_failure_trace(net_, config_.horizon_s, 18.0, trace_rng);
  config_.scheme = "ARROW";
  util::Rng r1(44), r2(44);
  const auto a = run_controller(net_, tms_, trace, config_, r1);
  const auto b = run_controller(net_, tms_, trace, config_, r2);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.offered_gbps_seconds, b.offered_gbps_seconds);
  EXPECT_EQ(a.delivered_gbps_seconds, b.delivered_gbps_seconds);
  EXPECT_EQ(a.lost_gbps_seconds, b.lost_gbps_seconds);
  EXPECT_EQ(a.transient_loss_gbps_seconds, b.transient_loss_gbps_seconds);
}

TEST_F(ControllerFixture, TransientLossIsPartOfTotalLoss) {
  util::Rng rng(13);
  const auto trace =
      sample_failure_trace(net_, config_.horizon_s, 24.0, rng);
  config_.scheme = "ARROW";
  util::Rng run_rng(14);
  const auto r = run_controller(net_, tms_, trace, config_, run_rng);
  EXPECT_LE(r.transient_loss_gbps_seconds, r.lost_gbps_seconds + 1e-6);
  EXPECT_NEAR(r.offered_gbps_seconds,
              r.delivered_gbps_seconds + r.lost_gbps_seconds,
              1e-6 * r.offered_gbps_seconds);
}

// The report's to_json() pinned byte for byte for every scheme the
// controller runs, on a two-hour trace whose cuts overlap. A change to the run core
// must leave these files untouched; on a mismatch the actual JSON is written
// to the working directory for diffing. A rewoven plan's latency includes
// its repair's wall-clock solve time, so ReWeave-Local's
// local_repair_seconds and restoration latency percentiles are checked
// positive and ordered, then zeroed before the comparison.
TEST_F(ControllerFixture, RunReportMatchesGoldenForEveryScheme) {
  util::Rng trace_rng(27);
  const auto trace =
      sample_failure_trace(net_, config_.horizon_s, 48.0, trace_rng);
  for (const std::string s : {"ARROW", "ARROW-Naive", "FFC-1", "TeaVaR",
                              "ECMP", "ReWeave-Local"}) {
    config_.scheme = s;
    util::Rng rng(22);
    auto report = run_controller(net_, tms_, trace, config_, rng);
    ASSERT_GT(report.overlapping_cuts, 0) << s;
    if (s == "ReWeave-Local") {
      EXPECT_GT(report.local_repair_seconds, 0.0);
      EXPECT_GT(report.restoration_p50_s, 0.0);
      EXPECT_LE(report.restoration_p50_s, report.restoration_p90_s);
      EXPECT_LE(report.restoration_p90_s, report.restoration_p99_s);
      EXPECT_LE(report.restoration_p99_s, report.restoration_max_s);
      report.local_repair_seconds = 0.0;
      report.restoration_p50_s = 0.0;
      report.restoration_p90_s = 0.0;
      report.restoration_p99_s = 0.0;
      report.restoration_max_s = 0.0;
    }
    const std::string name = "controller_" + s + ".json";
    std::ifstream in(std::string(ARROW_GOLDEN_DIR) + "/" + name);
    ASSERT_TRUE(in) << "missing golden file " << name;
    std::stringstream golden;
    golden << in.rdbuf();
    const std::string actual = report.to_json();
    if (actual != golden.str()) {
      std::ofstream(name + ".actual") << actual;
      ADD_FAILURE() << name << " differs; actual written to " << name
                    << ".actual";
    }
  }
}

// Every session chains its periods through its warm-start cache, so the
// golden runs above warm-start their later periods. A warm start may land
// on another optimal vertex, never on another optimum: each warm-started
// LP of those runs, re-solved cold, reaches the same objective within
// solver tolerance.
TEST_F(ControllerFixture, WarmStartedSolvesMatchTheirColdObjectives) {
  util::Rng trace_rng(27);
  const auto trace =
      sample_failure_trace(net_, config_.horizon_s, 48.0, trace_rng);
  for (const std::string s : {"ARROW", "ARROW-Naive", "FFC-1", "TeaVaR",
                              "ReWeave-Local"}) {
    config_.scheme = s;
    std::vector<std::pair<solver::Lp, double>> warm;
    {
      solver::ScopedSolveObserver capture(
          [&](const solver::Lp& lp, solver::LpSolution& sol) {
            if (sol.warm_started && sol.status == solver::LpStatus::kOptimal) {
              warm.emplace_back(lp, sol.objective);
            }
          });
      util::Rng rng(22);
      run_controller(net_, tms_, trace, config_, rng);
    }
    ASSERT_FALSE(warm.empty()) << s;
    for (const auto& [lp, objective] : warm) {
      const solver::LpSolution cold = solver::solve_lp(lp);
      ASSERT_EQ(cold.status, solver::LpStatus::kOptimal) << s;
      EXPECT_FALSE(cold.warm_started) << s;
      EXPECT_NEAR(cold.objective, objective,
                  1e-7 * std::max(1.0, std::abs(objective)))
          << s;
    }
  }
}

// Delegates to a real scheme after probing the pool it was handed: counts
// fan-out bodies that ran off the caller's thread under the caller's rung
// deadline (the share the ladder installs around each LP rung).
class PoolProbe : public schemes::Scheme {
 public:
  explicit PoolProbe(std::unique_ptr<schemes::Scheme> inner)
      : inner_(std::move(inner)) {}
  const std::string& name() const override { return inner_->name(); }
  schemes::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  te::TeSolution solve(const te::TeInput& input,
                       const te::ArrowPrepared& prepared,
                       util::ThreadPool& pool,
                       const te::RestorabilityCache* cache) override {
    const util::Deadline rung = solver::ScopedSolveDeadline::active_deadline();
    if (rung.is_set()) {
      const auto caller = std::this_thread::get_id();
      pool.parallel_for(0, 16, [&](int) {
        if (std::this_thread::get_id() != caller &&
            solver::ScopedSolveDeadline::active_deadline().expiry_s() ==
                rung.expiry_s()) {
          rung_off_caller++;
        }
      });
    }
    return inner_->solve(input, prepared, pool, cache);
  }

  std::atomic<int> rung_off_caller{0};

 private:
  std::unique_ptr<schemes::Scheme> inner_;
};

// The relaxed-retry rung re-runs the scheme with the primary's solver
// settings on the caller's pool: its deadline share follows the work onto
// the workers, and the period's outcome is the same on eight threads as
// inline.
TEST(Ladder, RelaxedRungOnEightThreadsMatchesInline) {
  const topo::Network net = topo::build_b4();
  util::Rng rng(7);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto tms = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.002;
  const auto scenarios = scenario::remove_disconnecting(
      net, scenario::generate_scenarios(net, sp, rng).scenarios);
  te::TunnelParams tun;
  tun.tunnels_per_flow = 4;
  te::TeInput input(net, tms[0], scenarios, tun);
  input.scale_demands(0.5 * te::max_satisfiable_scale(input));
  schemes::SchemeOptions options;
  options.arrow.tickets.num_tickets = 4;
  util::ThreadPool inline_pool(1);
  const auto prepared =
      te::prepare_arrow(input, options.arrow, rng, inline_pool);
  const te::RestorabilityCache rcache(input, prepared, inline_pool);

  const auto run = [&](util::ThreadPool& pool, int* off_caller) {
    PoolProbe scheme(schemes::Registry::global().create("ARROW", options));
    // Fail the primary rung's first LP (solved on this thread, where the
    // observer lives) so the relaxed rung serves the period. The hour-long
    // budget gives every LP rung a deadline share and never binds.
    int solves = 0;
    solver::ScopedSolveObserver fail_first(
        [&](const solver::Lp&, solver::LpSolution& solution) {
          if (solves++ == 0) solution.status = solver::LpStatus::kNumericalError;
        });
    LadderOutcome out = solve_with_ladder(scheme, input, prepared, nullptr,
                                          &rcache, pool,
                                          util::Deadline::after(3600.0),
                                          nullptr);
    *off_caller = scheme.rung_off_caller.load();
    return out;
  };
  util::ThreadPool one(1), eight(8);
  int off_one = 0, off_eight = 0;
  const LadderOutcome a = run(one, &off_one);
  const LadderOutcome b = run(eight, &off_eight);
  ASSERT_EQ(a.rung, Rung::kRelaxedRetry);
  ASSERT_TRUE(a.sol.optimal);
  EXPECT_EQ(b.rung, a.rung);
  EXPECT_EQ(b.sol.optimal, a.sol.optimal);
  EXPECT_EQ(b.sol.objective, a.sol.objective);
  EXPECT_EQ(b.sol.admitted, a.sol.admitted);
  EXPECT_EQ(b.sol.alloc, a.sol.alloc);
  EXPECT_EQ(b.work.simplex_iterations, a.work.simplex_iterations);
  EXPECT_EQ(b.work.pricing_candidates, a.work.pricing_candidates);
  EXPECT_EQ(b.solver_timeouts, a.solver_timeouts);
  EXPECT_EQ(b.backoff_retries, a.backoff_retries);
  EXPECT_EQ(off_one, 0);
  EXPECT_GT(off_eight, 0);
}

TEST(FailureTrace, RespectsHorizonAndRates) {
  const topo::Network net = topo::build_b4();
  util::Rng rng(11);
  const double horizon = 30.0 * 24.0 * 3600.0;  // a month
  const auto trace = sample_failure_trace(net, horizon, 16.0 / 30.0, rng);
  // ~16 cuts expected over the month (the §2.2 rate).
  EXPECT_GT(trace.size(), 5u);
  EXPECT_LT(trace.size(), 40u);
  for (const auto& ev : trace) {
    EXPECT_GE(ev.t_s, 0.0);
    EXPECT_LT(ev.t_s, horizon);
    EXPECT_GT(ev.repair_s, 0.0);
    EXPECT_GE(ev.fiber, 0);
    EXPECT_LT(ev.fiber, static_cast<int>(net.optical.fibers.size()));
  }
}

}  // namespace
}  // namespace arrow::ctrl

// Observability must be strictly read-only: TE solutions, controller
// reports, and solver stats are bit-identical with obs on vs off, and the
// RunReport's counts are exact copies of the controller's accounting of
// what the solver returned.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "controller/controller.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "solver/basis_store.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "te/input.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace arrow {
namespace {

te::TeSolution solve_b4_once(int pool_threads) {
  const topo::Network net = topo::build_b4();
  util::Rng rng(2024);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto tms = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.002;
  auto set = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, set.scenarios);
  te::TunnelParams tun;
  tun.tunnels_per_flow = 4;
  te::TeInput input(net, tms[0], scenarios, tun);
  input.scale_demands(te::max_satisfiable_scale(input) * 0.5);
  te::ArrowParams ap;
  ap.tickets.num_tickets = 4;
  util::ThreadPool pool(pool_threads);
  const auto prepared = te::prepare_arrow(input, ap, rng, pool);
  return te::solve_arrow(input, prepared, ap, pool, nullptr);
}

void expect_bit_identical(const te::TeSolution& a, const te::TeSolution& b) {
  EXPECT_EQ(a.optimal, b.optimal);
  EXPECT_EQ(a.simplex_iterations, b.simplex_iterations);
  ASSERT_EQ(a.alloc.size(), b.alloc.size());
  for (std::size_t f = 0; f < a.alloc.size(); ++f) {
    ASSERT_EQ(a.alloc[f].size(), b.alloc[f].size()) << "flow " << f;
    for (std::size_t t = 0; t < a.alloc[f].size(); ++t) {
      // Bitwise, not approximate: obs must not perturb a single ulp.
      EXPECT_EQ(a.alloc[f][t], b.alloc[f][t]) << "flow " << f << " tunnel "
                                              << t;
    }
  }
  ASSERT_EQ(a.admitted.size(), b.admitted.size());
  for (std::size_t f = 0; f < a.admitted.size(); ++f) {
    EXPECT_EQ(a.admitted[f], b.admitted[f]) << "flow " << f;
  }
  EXPECT_EQ(a.winner, b.winner);
}

TEST(ObsDeterminism, TeSolutionBitIdenticalWithTraceOnVsOff) {
  obs::clear_trace();
  te::TeSolution off;
  {
    obs::ScopedTraceEnable disabled(false);
    off = solve_b4_once(2);
  }
  te::TeSolution on;
  {
    obs::ScopedTraceEnable enabled(true);
    on = solve_b4_once(2);
  }
  ASSERT_TRUE(off.optimal);
  expect_bit_identical(off, on);
  // The traced run actually recorded spans — this was not a no-op compare.
  EXPECT_GT(obs::trace_span_count(), 0u);
  obs::clear_trace();
}

struct ControllerFixture {
  topo::Network net = topo::build_b4();
  std::vector<traffic::TrafficMatrix> tms;
  std::vector<ctrl::FailureEvent> trace;
  ctrl::ControllerConfig config;

  ControllerFixture() {
    util::Rng rng(7);
    traffic::TrafficParams tp;
    tp.num_matrices = 2;
    tms = traffic::generate_traffic(net, tp, rng);
    config.scheme = "ARROW";
    config.horizon_s = 2.0 * 3600.0;
    config.te_interval_s = 600.0;
    config.tunnels.tunnels_per_flow = 4;
    config.arrow.tickets.num_tickets = 4;
    config.scenarios.probability_cutoff = 0.004;
    config.demand_scale = 0.3;
    util::Rng trace_rng(11);
    trace = ctrl::sample_failure_trace(net, config.horizon_s, 24.0,
                                       trace_rng);
  }

  ctrl::ControllerReport run() {
    util::Rng rng(19);
    return ctrl::run_controller(net, tms, trace, config, rng);
  }
};

TEST(ObsDeterminism, ControllerRunBitIdenticalWithTraceOnVsOff) {
  ControllerFixture fx;
  ctrl::ControllerReport off;
  {
    obs::ScopedTraceEnable disabled(false);
    off = fx.run();
  }
  obs::clear_trace();
  ctrl::ControllerReport on;
  {
    obs::ScopedTraceEnable enabled(true);
    on = fx.run();
  }
  EXPECT_GT(obs::trace_span_count(), 0u);
  obs::clear_trace();

  // Bitwise equality of the delivered-traffic integrals — the TE fingerprint.
  EXPECT_EQ(off.offered_gbps_seconds, on.offered_gbps_seconds);
  EXPECT_EQ(off.delivered_gbps_seconds, on.delivered_gbps_seconds);
  EXPECT_EQ(off.lost_gbps_seconds, on.lost_gbps_seconds);
  EXPECT_EQ(off.solve_work.simplex_iterations, on.solve_work.simplex_iterations);
  EXPECT_EQ(off.simplex_iterations_by_matrix, on.simplex_iterations_by_matrix);
  ASSERT_EQ(off.timeline.size(), on.timeline.size());
  for (std::size_t i = 0; i < off.timeline.size(); ++i) {
    EXPECT_EQ(off.timeline[i], on.timeline[i]) << "timeline point " << i;
  }
}

TEST(ObsDeterminism, RunReportCopiesControllerAccountingExactly) {
  ControllerFixture fx;
  fx.config.obs.run_id = "determinism_test";
  const ctrl::ControllerReport report = fx.run();
  const obs::RunReport& rr = report.run_report;

  // Pivot counts: the RunReport total must equal the controller's ladder
  // accounting, which sums the iterations every solve *returned*.
  EXPECT_GT(report.solve_work.simplex_iterations, 0);
  EXPECT_EQ(rr.simplex_iterations, report.solve_work.simplex_iterations);
  EXPECT_EQ(rr.pricing_candidates, report.solve_work.pricing_candidates);
  EXPECT_GT(report.solve_work.pricing_candidates, 0);
  EXPECT_EQ(report.solve_work.simplex_iterations,
            std::accumulate(report.simplex_iterations_by_matrix.begin(),
                            report.simplex_iterations_by_matrix.end(), 0LL));
  ASSERT_EQ(report.simplex_iterations_by_matrix.size(), fx.tms.size());

  EXPECT_EQ(rr.run_id, "determinism_test");
  EXPECT_EQ(rr.scheme, "ARROW");
  EXPECT_EQ(rr.traffic_matrices, static_cast<int>(fx.tms.size()));
  EXPECT_EQ(rr.te_runs, report.te_runs);
  ASSERT_EQ(rr.ladder.size(), static_cast<std::size_t>(ctrl::kNumRungs));
  for (int r = 0; r < ctrl::kNumRungs; ++r) {
    EXPECT_EQ(rr.ladder[static_cast<std::size_t>(r)].first,
              ctrl::to_string(static_cast<ctrl::Rung>(r)));
    EXPECT_EQ(rr.ladder[static_cast<std::size_t>(r)].second,
              report.fallback_counts[static_cast<std::size_t>(r)]);
  }
  EXPECT_EQ(rr.degraded_periods, report.degraded_periods);
  EXPECT_EQ(rr.deadline_overruns, report.deadline_overruns);
  EXPECT_EQ(rr.cuts_handled, report.cuts_handled);
  EXPECT_EQ(rr.cuts_with_plan, report.cuts_with_plan);
  EXPECT_EQ(rr.unplanned_cuts, report.unplanned_cuts);
  EXPECT_EQ(rr.emergency_restorations, report.emergency_restorations);
  EXPECT_EQ(rr.rwa_repairs, report.rwa_repairs);
  EXPECT_EQ(rr.rwa_scenarios_lost, report.rwa_scenarios_lost);
  EXPECT_EQ(rr.calibration_degraded, report.calibration_degraded);
  EXPECT_EQ(rr.solver_timeouts, report.solver_timeouts);
  EXPECT_EQ(rr.backoff_retries, report.backoff_retries);
  EXPECT_EQ(rr.restorations,
            static_cast<int>(report.restoration_latency_s.size()));
  EXPECT_EQ(rr.availability, report.availability());
  // No store configured: the session's own cache still chains the periods,
  // and nothing is seeded from or absorbed into a store.
  EXPECT_EQ(rr.warm_start_hits, report.warm_start_hits);
  EXPECT_EQ(rr.warm_start_stores, report.warm_start_stores);
  EXPECT_GT(report.warm_start_stores, 0);
  EXPECT_EQ(rr.basis_seeded, 0);
  EXPECT_EQ(rr.basis_absorbed, 0);
}

TEST(ObsDeterminism, RunReportWarmStartCountsMatchStoreTraffic) {
  ControllerFixture fx;
  solver::BasisStore store;
  fx.config.basis_store = &store;

  const ctrl::ControllerReport first = fx.run();
  EXPECT_EQ(first.basis_seeded, 0);  // store started empty
  EXPECT_GT(first.warm_start_stores, 0);
  EXPECT_GT(first.basis_absorbed, 0);
  EXPECT_EQ(first.run_report.warm_start_hits, first.warm_start_hits);
  EXPECT_EQ(first.run_report.warm_start_stores, first.warm_start_stores);
  EXPECT_EQ(first.run_report.basis_seeded, first.basis_seeded);
  EXPECT_EQ(first.run_report.basis_absorbed, first.basis_absorbed);

  const ctrl::ControllerReport second = fx.run();
  EXPECT_GT(second.basis_seeded, 0);  // seeded from the first run's bases
  EXPECT_GT(second.warm_start_hits, 0);
  EXPECT_EQ(second.run_report.warm_start_hits, second.warm_start_hits);
  EXPECT_EQ(second.run_report.basis_seeded, second.basis_seeded);
}

}  // namespace
}  // namespace arrow

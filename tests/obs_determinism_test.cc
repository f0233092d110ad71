// Observability must be strictly read-only: TE solutions, controller
// reports, and solver stats are bit-identical with obs on vs off, and the
// RunReport's counts are exact copies of the controller's accounting of
// what the solver returned.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <string>
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
  EXPECT_EQ(off.transient_loss_gbps_seconds, on.transient_loss_gbps_seconds);
  EXPECT_EQ(off.simplex_iterations, on.simplex_iterations);
  EXPECT_EQ(off.simplex_iterations_by_matrix, on.simplex_iterations_by_matrix);
  EXPECT_EQ(off.to_json(), on.to_json());
}

TEST(ObsDeterminism, RunReportCopiesControllerAccountingExactly) {
  ControllerFixture fx;
  fx.config.obs.run_id = "determinism_test";
  const ctrl::ControllerReport report = fx.run();
  const obs::RunReport& rr = report;

  // Pivot counts: the RunReport total is the controller's ladder
  // accounting, which sums the iterations every solve *returned*.
  EXPECT_GT(rr.simplex_iterations, 0);
  EXPECT_GT(rr.pricing_candidates, 0);
  EXPECT_EQ(rr.simplex_iterations,
            std::accumulate(report.simplex_iterations_by_matrix.begin(),
                            report.simplex_iterations_by_matrix.end(), 0LL));
  ASSERT_EQ(report.simplex_iterations_by_matrix.size(), fx.tms.size());

  EXPECT_EQ(rr.run_id, "determinism_test");
  EXPECT_EQ(rr.scheme, "ARROW");
  EXPECT_EQ(rr.traffic_matrices, static_cast<int>(fx.tms.size()));
  ASSERT_EQ(rr.ladder.size(), static_cast<std::size_t>(ctrl::kNumRungs));
  for (int r = 0; r < ctrl::kNumRungs; ++r) {
    EXPECT_EQ(rr.ladder[static_cast<std::size_t>(r)].first,
              ctrl::to_string(static_cast<ctrl::Rung>(r)));
    EXPECT_EQ(rr.ladder[static_cast<std::size_t>(r)].second,
              report.fallback_counts[static_cast<std::size_t>(r)]);
  }
  EXPECT_EQ(rr.restorations,
            static_cast<int>(report.restoration_latency_s.size()));
  EXPECT_EQ(rr.availability,
            report.delivered_gbps_seconds / report.offered_gbps_seconds);
  // No store configured: the session's own cache still chains the periods,
  // and nothing is seeded from or absorbed into a store.
  EXPECT_GT(rr.warm_start_stores, 0);
  EXPECT_EQ(rr.basis_seeded, 0);
  EXPECT_EQ(rr.basis_absorbed, 0);
}

TEST(ObsDeterminism, RunReportWarmStartCountsMatchStoreTraffic) {
  ControllerFixture fx;
  const std::string dir = ::testing::TempDir() + "obs_basis_dir";
  std::filesystem::create_directories(dir);
  std::filesystem::remove(solver::BasisStore::file_in(dir));
  fx.config.basis_dir = dir;

  const ctrl::ControllerReport first = fx.run();
  EXPECT_EQ(first.basis_seeded, 0);  // store started empty
  EXPECT_GT(first.warm_start_stores, 0);
  EXPECT_GT(first.basis_absorbed, 0);

  const ctrl::ControllerReport second = fx.run();
  EXPECT_GT(second.basis_seeded, 0);  // seeded from the first run's bases
  EXPECT_GT(second.warm_start_hits, 0);
}

}  // namespace
}  // namespace arrow

// Tests for the evaluation layer: availability metric, link loads, the
// router-port cost model, the failure-ticket study, and demand sweeps.
#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "sim/availability.h"
#include "sim/cost.h"
#include "sim/sweep.h"
#include "sim/tickets.h"
#include "solver/lp.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "te/ffc.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace arrow::sim {
namespace {

class SimFixture : public ::testing::Test {
 protected:
  SimFixture() : net_(topo::build_b4()) {
    util::Rng rng(303);
    traffic::TrafficParams tp;
    tp.num_matrices = 1;
    matrices_ = traffic::generate_traffic(net_, tp, rng);
    scenario::ScenarioParams sp;
    sp.probability_cutoff = 0.001;
    auto set = scenario::generate_scenarios(net_, sp, rng);
    scenarios_ = scenario::remove_disconnecting(net_, set.scenarios);
    te::TunnelParams tun;
    tun.tunnels_per_flow = 6;
    input_ = std::make_unique<te::TeInput>(net_, matrices_[0], scenarios_, tun);
    input_->scale_demands(te::max_satisfiable_scale(*input_));
  }
  topo::Network net_;
  std::vector<traffic::TrafficMatrix> matrices_;
  std::vector<scenario::Scenario> scenarios_;
  std::unique_ptr<te::TeInput> input_;
};

TEST_F(SimFixture, AvailabilityIsAProbabilityWeightedSatisfaction) {
  input_->scale_demands(0.5);
  const te::TeSolution sol = te::solve_ffc(*input_, te::FfcParams{1, 0});
  ASSERT_TRUE(sol.optimal);
  const Evaluation eval = evaluate(*input_, sol);
  EXPECT_GE(eval.availability, 0.0);
  EXPECT_LE(eval.availability, 1.0 + 1e-9);
  EXPECT_EQ(eval.per_scenario.size(),
            static_cast<std::size_t>(input_->num_scenarios()));
  // Hand-computed: healthy mass * healthy sat + sum p_q * sat_q.
  double mass = 0.0, weighted = 0.0;
  for (int q = 0; q < input_->num_scenarios(); ++q) {
    const double p = input_->scenarios()[static_cast<std::size_t>(q)].probability;
    mass += p;
    weighted += p * eval.per_scenario[static_cast<std::size_t>(q)];
  }
  EXPECT_NEAR(eval.availability,
              (1.0 - mass) * eval.healthy_satisfaction + weighted, 1e-9);
}

TEST_F(SimFixture, HealthySatisfactionIsFullAtLowLoad) {
  input_->scale_demands(0.5);
  const te::TeSolution sol = te::solve_max_throughput(*input_);
  ASSERT_TRUE(sol.optimal);
  EXPECT_NEAR(scenario_satisfaction(*input_, sol, -1), 1.0, 1e-4);  // eps-weights shift a hair
}

TEST_F(SimFixture, FailuresOnlyHurt) {
  input_->scale_demands(0.7);
  const te::TeSolution sol = te::solve_max_throughput(*input_);
  ASSERT_TRUE(sol.optimal);
  const double healthy = scenario_satisfaction(*input_, sol, -1);
  for (int q = 0; q < input_->num_scenarios(); ++q) {
    EXPECT_LE(scenario_satisfaction(*input_, sol, q), healthy + 1e-9);
  }
}

TEST_F(SimFixture, EcmpOversubscriptionIsScaledNotIgnored) {
  input_->scale_demands(3.0);  // way past saturation
  const te::TeSolution sol = te::solve_ecmp(*input_);
  const double sat = scenario_satisfaction(*input_, sol, -1);
  EXPECT_LT(sat, 0.9);  // losses appear
  EXPECT_GT(sat, 0.1);  // but traffic still flows
  // Delivered loads never exceed capacity.
  const auto loads = link_loads(*input_, sol, -1);
  for (std::size_t e = 0; e < loads.size(); ++e) {
    EXPECT_LE(loads[e], net_.ip_links[e].capacity_gbps() + 1e-6);
  }
}

TEST_F(SimFixture, RestoredCapacityCountsInScenarios) {
  input_->scale_demands(0.6);
  te::ArrowParams ap;
  ap.tickets.num_tickets = 6;
  util::Rng rng(17);
  const auto prepared = te::prepare_arrow(*input_, ap, rng);
  const te::TeSolution arrow_sol = te::solve_arrow(*input_, prepared, ap);
  ASSERT_TRUE(arrow_sol.optimal);
  // Loads on restored links stay within the restored capacity.
  for (int q = 0; q < input_->num_scenarios(); ++q) {
    const auto loads = link_loads(*input_, arrow_sol, q);
    for (const auto& [e, r] :
         arrow_sol.restored[static_cast<std::size_t>(q)]) {
      EXPECT_LE(loads[static_cast<std::size_t>(e)], r + 1e-4);
    }
  }
}

TEST_F(SimFixture, DeadTunnelsCarryNothing) {
  input_->scale_demands(0.6);
  const te::TeSolution sol = te::solve_ffc(*input_, te::FfcParams{1, 0});
  ASSERT_TRUE(sol.optimal);
  for (int q = 0; q < std::min(5, input_->num_scenarios()); ++q) {
    const auto loads = link_loads(*input_, sol, q);
    for (topo::IpLinkId e : input_->failed_links(q)) {
      EXPECT_DOUBLE_EQ(loads[static_cast<std::size_t>(e)], 0.0);
    }
  }
}

TEST_F(SimFixture, CostModelBasics) {
  input_->scale_demands(0.6);
  const te::TeSolution sol = te::solve_ffc(*input_, te::FfcParams{1, 0});
  ASSERT_TRUE(sol.optimal);
  const CostResult cost = compute_cost(*input_, sol, 0.999);
  EXPECT_GT(cost.cap_total, 0.0);
  EXPECT_GT(cost.availability_guaranteed_throughput, 0.0);
  EXPECT_LE(cost.availability_guaranteed_throughput, 1.0 + 1e-9);
  EXPECT_GE(cost.normalized_ports, cost.cap_total - 1e-6);
}

TEST_F(SimFixture, FullyRestorableBaselineNeedsFewestPorts) {
  input_->scale_demands(0.6);
  const CostResult baseline = fully_restorable_baseline(*input_);
  const CostResult ffc = compute_cost(
      *input_, te::solve_ffc(*input_, te::FfcParams{1, 0}), 0.999);
  // Failure-aware TEs over-provision; the hypothetical fully-restorable TE
  // does not (Fig. 16's key point).
  EXPECT_LE(baseline.normalized_ports, ffc.normalized_ports + 1e-6);
}

TEST(Tickets, CalibratedToPaperHeadlines) {
  const topo::Network net = topo::build_fbsynth();
  util::Rng rng(42);
  TicketStudyParams p;
  const auto tickets = generate_tickets(net, p, rng);
  ASSERT_EQ(tickets.size(), 600u);
  // Fiber-cut MTTR: median above ~9 hours, >= 10% beyond a day (Fig. 3a).
  std::vector<double> cut_mttr;
  for (const auto& t : tickets) {
    if (t.cause == RootCause::kFiberCut) {
      cut_mttr.push_back(t.duration_hours);
      EXPECT_GE(t.fiber, 0);
      EXPECT_GE(t.lost_gbps, 0.0);
    }
  }
  ASSERT_GT(cut_mttr.size(), 100u);
  EXPECT_GT(util::percentile(cut_mttr, 50.0), 7.0);
  EXPECT_GT(util::percentile(cut_mttr, 90.0), 20.0);
  // Fiber cuts dominate downtime (~67% in Fig. 3b).
  for (const auto& [cause, share] : downtime_share(tickets)) {
    if (cause == RootCause::kFiberCut) {
      EXPECT_GT(share, 0.5);
      EXPECT_LT(share, 0.85);
    }
  }
}

// Regression: repairs drawn near the end of the observation window used to
// extend past it, counting downtime the study never observes and inflating
// downtime_share. Durations must be clipped to the window.
TEST(Tickets, DurationsAreClippedToTheObservationWindow) {
  const topo::Network net = topo::build_fbsynth();
  util::Rng rng(44);
  TicketStudyParams p;
  p.num_tickets = 400;
  p.window_hours = 48.0;  // lognormal MTTR (median ~9 h) overruns this often
  const auto tickets = generate_tickets(net, p, rng);
  ASSERT_EQ(tickets.size(), 400u);
  bool clip_engaged = false;
  double total_downtime = 0.0;
  for (const auto& t : tickets) {
    EXPECT_GE(t.start_hours, 0.0);
    EXPECT_LE(t.start_hours, p.window_hours);
    EXPECT_GE(t.duration_hours, 0.0);
    EXPECT_LE(t.start_hours + t.duration_hours, p.window_hours + 1e-9);
    clip_engaged |=
        t.start_hours + t.duration_hours > p.window_hours - 1e-9;
    total_downtime += t.duration_hours;
  }
  EXPECT_TRUE(clip_engaged);  // the short window must actually clip someone
  // downtime_share over clipped tickets still partitions the total.
  double share_sum = 0.0;
  for (const auto& [cause, share] : downtime_share(tickets)) {
    EXPECT_GE(share, 0.0);
    share_sum += share;
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  EXPECT_LE(total_downtime,
            static_cast<double>(tickets.size()) * p.window_hours);
}

TEST(Tickets, DegenerateParamsAreRejected) {
  const topo::Network net = topo::build_b4();
  util::Rng rng(45);
  TicketStudyParams p;
  p.num_tickets = -1;
  EXPECT_THROW(generate_tickets(net, p, rng), std::logic_error);
  p.num_tickets = 10;
  p.window_hours = 0.0;
  EXPECT_THROW(generate_tickets(net, p, rng), std::logic_error);
  p.window_hours = -24.0;
  EXPECT_THROW(generate_tickets(net, p, rng), std::logic_error);
  // Zero tickets is a valid (empty) study, not an error.
  p.num_tickets = 0;
  p.window_hours = 24.0;
  EXPECT_TRUE(generate_tickets(net, p, rng).empty());
}

TEST(Tickets, LostCapacityMatchesProvisioning) {
  const topo::Network net = topo::build_fbsynth();
  util::Rng rng(43);
  TicketStudyParams p;
  p.num_tickets = 100;
  const auto tickets = generate_tickets(net, p, rng);
  for (const auto& t : tickets) {
    if (t.cause == RootCause::kFiberCut) {
      EXPECT_DOUBLE_EQ(t.lost_gbps, net.provisioned_gbps(t.fiber));
    }
  }
}

TEST(Sweep, MaxScaleInterpolates) {
  SweepResult r;
  r.scales = {1.0, 2.0, 3.0};
  r.schemes = {"X"};
  r.availability["X"] = {1.0, 0.8, 0.2};
  EXPECT_NEAR(r.max_scale_at("X", 0.9), 1.5, 1e-9);
  EXPECT_NEAR(r.max_scale_at("X", 0.99999), 1.0, 0.01);
  EXPECT_NEAR(r.max_scale_at("X", 0.1), 3.0, 1e-9);
  EXPECT_THROW(r.max_scale_at("Y", 0.5), std::logic_error);
}

TEST(Sweep, MaxScaleFirstCrossing) {
  // Non-monotone curve (solver noise at high scales): the answer is the
  // FIRST downward crossing. A later re-ascent above the target must not
  // resurrect a larger scale.
  SweepResult r;
  r.scales = {1.0, 2.0, 3.0, 4.0};
  r.schemes = {"X"};
  r.availability["X"] = {1.0, 0.5, 0.95, 0.2};
  // Crossing 0.9 happens between scales 1 and 2: 1 + (1.0-0.9)/(1.0-0.5).
  EXPECT_NEAR(r.max_scale_at("X", 0.9), 1.2, 1e-9);
  // Even the smallest scale misses the target -> 0.
  EXPECT_NEAR(r.max_scale_at("X", 1.5), 0.0, 1e-12);
  // Never drops below the target -> last grid scale.
  EXPECT_NEAR(r.max_scale_at("X", 0.1), 4.0, 1e-12);
}

TEST(Sweep, SmallEndToEndRun) {
  const topo::Network net = topo::build_b4();
  util::Rng rng(7);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto matrices = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.005;
  auto set = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, set.scenarios);

  SweepParams params;
  params.scales = {0.4, 0.8};
  // Without FFC-2: keep the test fast.
  params.schemes = {"ARROW", "ARROW-Naive", "FFC-1", "TeaVaR", "ECMP"};
  params.tunnels.tunnels_per_flow = 5;
  params.arrow.tickets.num_tickets = 4;
  const SweepResult result = run_sweep(net, matrices, scenarios, params, rng);

  for (const auto& scheme : result.schemes) {
    const auto& avail = result.availability.at(scheme);
    ASSERT_EQ(avail.size(), 2u);
    for (double a : avail) {
      EXPECT_GE(a, 0.0);
      EXPECT_LE(a, 1.0 + 1e-9);
    }
    // Higher load never improves availability.
    EXPECT_GE(avail[0], avail[1] - 1e-6) << scheme;
  }
  // ARROW at low scale should be at least as available as FFC-1.
  EXPECT_GE(result.availability.at("ARROW")[0],
            result.availability.at("FFC-1")[0] - 1e-6);
}


TEST_F(SimFixture, StateDeliveryMatchesScenarioView) {
  input_->scale_demands(0.6);
  const te::TeSolution sol = te::solve_ffc(*input_, te::FfcParams{1, 0});
  ASSERT_TRUE(sol.optimal);
  // Healthy state.
  const auto healthy = state_delivery(*input_, sol, {}, {});
  EXPECT_NEAR(healthy.satisfaction, scenario_satisfaction(*input_, sol, -1),
              1e-9);
  // Each scenario with no restoration matches the indexed view.
  for (int q = 0; q < std::min(5, input_->num_scenarios()); ++q) {
    const auto st = state_delivery(
        *input_, sol, input_->scenarios()[static_cast<std::size_t>(q)].cuts,
        {});
    EXPECT_NEAR(st.satisfaction, scenario_satisfaction(*input_, sol, q),
                1e-9)
        << "scenario " << q;
  }
}

TEST_F(SimFixture, StateDeliveryRestorationMonotone) {
  input_->scale_demands(0.8);
  const te::TeSolution sol = te::solve_max_throughput(*input_);
  ASSERT_TRUE(sol.optimal);
  const auto cuts = input_->scenarios()[0].cuts;
  const auto failed = net_.failed_ip_links(cuts);
  if (failed.empty()) GTEST_SKIP();
  // Ramping restored capacity up never reduces delivery.
  double prev = -1.0;
  for (double frac : {0.0, 0.25, 0.5, 1.0}) {
    std::map<topo::IpLinkId, double> restored;
    for (topo::IpLinkId e : failed) {
      restored[e] =
          frac * net_.ip_links[static_cast<std::size_t>(e)].capacity_gbps();
    }
    const auto st = state_delivery(*input_, sol, cuts, restored);
    EXPECT_GE(st.delivered_gbps, prev - 1e-6);
    prev = st.delivered_gbps;
  }
}

TEST_F(SimFixture, OverRestoringTicketIsClampedToLinkCapacity) {
  // Regression: the scenario-indexed delivery path (delivered_alloc) used to
  // take a ticket's restored gbps at face value, so a ticket whose surrogate
  // waves exceeded the original link let a failed link deliver MORE than its
  // provisioned capacity. state_delivery always clamped; the two paths must
  // agree.
  input_->scale_demands(3.0);  // over-subscribe so the clamp is load-bearing
  te::TeSolution sol = te::solve_ecmp(*input_);
  const auto& failed = input_->failed_links(0);
  if (failed.empty()) GTEST_SKIP();
  sol.restored.resize(static_cast<std::size_t>(input_->num_scenarios()));
  te::TeSolution exact = sol;
  for (topo::IpLinkId e : failed) {
    const double cap =
        net_.ip_links[static_cast<std::size_t>(e)].capacity_gbps();
    sol.restored[0][e] = 50.0 * cap;  // over-restoring ticket
    exact.restored[0][e] = cap;       // physically attainable plan
  }
  EXPECT_DOUBLE_EQ(scenario_satisfaction(*input_, sol, 0),
                   scenario_satisfaction(*input_, exact, 0));
  // Delivered load on a restored link never exceeds the IP link itself.
  const auto loads = link_loads(*input_, sol, 0);
  for (topo::IpLinkId e : failed) {
    EXPECT_LE(loads[static_cast<std::size_t>(e)],
              net_.ip_links[static_cast<std::size_t>(e)].capacity_gbps() +
                  1e-6);
  }
}

TEST(Sweep, SolveFailuresAreCountedAndExcludedFromMeans) {
  // Regression: a chain solve that came back non-optimal used to be averaged
  // into the availability mean as 0.0 — silently dragging the curve down.
  // Now the slot is excluded from the mean and the failure is counted.
  const topo::Network net = topo::build_b4();
  util::Rng rng(9);
  traffic::TrafficParams tp;
  tp.num_matrices = 2;
  const auto matrices = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.005;
  auto set = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, set.scenarios);

  SweepParams params;
  params.scales = {0.5};
  params.schemes = {"FFC-1"};  // one LP per calibration + chain
  params.warm_start = false;
  params.tunnels.tunnels_per_flow = 5;

  // Baseline: matrix 1 alone, no faults.
  util::ThreadPool inline_pool(1);
  util::Rng rng_base(1);
  const SweepResult clean =
      run_sweep(net, {matrices[1]}, scenarios, params, rng_base, inline_pool);
  ASSERT_EQ(clean.total_solve_failures(), 0);

  // Faulted run over both matrices, inline so the thread-local observer sees
  // every solve. Solve order with ThreadPool(1): calibration m0, calibration
  // m1, chain m0, chain m1 — index 2 is matrix 0's FFC-1 solve.
  int solve_idx = 0;
  solver::ScopedSolveObserver fail_third(
      [&](const solver::Lp&, solver::LpSolution& s) {
        if (solve_idx++ == 2) s.status = solver::LpStatus::kIterationLimit;
      });
  util::Rng rng_fault(1);
  const SweepResult faulted =
      run_sweep(net, matrices, scenarios, params, rng_fault, inline_pool);
  EXPECT_EQ(faulted.solve_failures.at("FFC-1")[0], 1);
  EXPECT_EQ(faulted.total_solve_failures(), 1);
  // The mean over the surviving matrix equals matrix 1's own value — the
  // failed matrix 0 slot contributes neither a 0.0 nor a divisor.
  EXPECT_DOUBLE_EQ(faulted.availability.at("FFC-1")[0],
                   clean.availability.at("FFC-1")[0]);
  EXPECT_DOUBLE_EQ(faulted.throughput.at("FFC-1")[0],
                   clean.throughput.at("FFC-1")[0]);
}

TEST_F(SimFixture, StateDeliveryRestoredCapacityIsClamped) {
  input_->scale_demands(0.5);
  const te::TeSolution sol = te::solve_max_throughput(*input_);
  ASSERT_TRUE(sol.optimal);
  const auto cuts = input_->scenarios()[0].cuts;
  const auto failed = net_.failed_ip_links(cuts);
  if (failed.empty()) GTEST_SKIP();
  // Absurdly large restored capacity must not beat the healthy state.
  std::map<topo::IpLinkId, double> restored;
  for (topo::IpLinkId e : failed) restored[e] = 1e9;
  const auto st = state_delivery(*input_, sol, cuts, restored);
  const auto healthy = state_delivery(*input_, sol, {}, {});
  EXPECT_LE(st.delivered_gbps, healthy.delivered_gbps + 1e-6);
}

}  // namespace
}  // namespace arrow::sim

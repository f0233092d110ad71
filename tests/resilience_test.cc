// Fault-injection suite (ctest label: resilience).
//
// The property under test is the controller's robustness contract: under a
// seeded storm of solver faults, dropped/delayed restoration plans,
// perturbed traffic matrices, unplanned cuts and concurrent double-cuts,
// run_controller never throws, attributes every degradation to a ladder
// rung, and keeps availability close to the fault-free baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "controller/controller.h"
#include "resilience/harness.h"
#include "serve/engine.h"
#include "solver/model.h"
#include "topo/builders.h"

namespace arrow::resilience {
namespace {

class ResilienceFixture : public ::testing::Test {
 protected:
  ResilienceFixture() : net_(topo::build_b4()) {
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

// --- to_string coverage (satellite) ----------------------------------------

TEST(ToString, LpStatusCoversEveryValue) {
  using solver::LpStatus;
  EXPECT_STREQ(to_string(LpStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(LpStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(LpStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(LpStatus::kIterationLimit), "iteration-limit");
  EXPECT_STREQ(to_string(LpStatus::kNumericalError), "numerical-error");
  EXPECT_STREQ(to_string(LpStatus::kTimedOut), "timed-out");
}

TEST(ToString, SolveStatusCoversEveryValue) {
  using solver::SolveStatus;
  for (SolveStatus s :
       {SolveStatus::kOptimal, SolveStatus::kInfeasible,
        SolveStatus::kUnbounded, SolveStatus::kIterationLimit,
        SolveStatus::kNodeLimit, SolveStatus::kNumericalError,
        SolveStatus::kTimedOut}) {
    EXPECT_STRNE(to_string(s), "unknown");
    EXPECT_GT(std::string(to_string(s)).size(), 0u);
  }
}

TEST(ToString, RungAndLpFaultCoverEveryValue) {
  for (int i = 0; i < ctrl::kNumRungs; ++i) {
    EXPECT_STRNE(ctrl::to_string(static_cast<ctrl::Rung>(i)), "unknown");
  }
  for (int i = 0; i < kNumLpFaults; ++i) {
    EXPECT_STRNE(to_string(static_cast<LpFault>(i)), "unknown");
  }
}

// --- FaultInjector unit behavior -------------------------------------------

TEST(FaultInjector, DeterministicGivenSeed) {
  FaultConfig fc;
  fc.seed = 42;
  fc.lp_fault_rate = 0.5;
  FaultInjector a(fc), b(fc);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.next_lp_fault(), b.next_lp_fault());
  }
}

TEST(FaultInjector, RateZeroInjectsNothingRateOneEverything) {
  FaultConfig quiet;
  quiet.lp_fault_rate = 0.0;
  FaultInjector none(quiet);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(none.next_lp_fault(), LpFault::kNone);
  }
  FaultConfig storm;
  storm.lp_fault_rate = 1.0;
  FaultInjector all(storm);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(all.next_lp_fault(), LpFault::kNone);
  }
}

TEST(FaultInjector, PerturbIsMeanPreservingAndOffByDefault) {
  traffic::TrafficMatrix tm;
  for (int i = 0; i < 400; ++i) {
    tm.demands.push_back({0, 1, 100.0});
  }
  FaultConfig off;
  FaultInjector id(off);
  EXPECT_DOUBLE_EQ(id.perturb(tm).total_gbps(), tm.total_gbps());

  FaultConfig jitter;
  jitter.tm_jitter_sigma = 0.3;
  FaultInjector j(jitter);
  const auto out = j.perturb(tm);
  EXPECT_NE(out.total_gbps(), tm.total_gbps());
  // Mean-one multiplicative jitter: total stays within a few percent over
  // 400 draws.
  EXPECT_NEAR(out.total_gbps() / tm.total_gbps(), 1.0, 0.1);
}

// A forced fault flows through the real solver entry point: the model is
// genuinely solved, then reported failed, and callers see the failure.
TEST(FaultInjector, ForcedStatusSurfacesThroughModelSolve) {
  FaultConfig fc;
  fc.lp_fault_rate = 1.0;
  fc.weight_numerical_error = 0.0;
  fc.weight_infeasible = 0.0;  // only kIterationLimit remains
  FaultInjector injector(fc);

  const auto build_and_solve = [] {
    solver::Model m;
    m.set_maximize();
    const auto x = m.add_var(0.0, 1.0, 1.0);
    (void)x;
    return m.solve();
  };
  EXPECT_TRUE(build_and_solve().optimal());
  {
    ScopedLpFaults guard(injector);
    const auto res = build_and_solve();
    EXPECT_FALSE(res.optimal());
    EXPECT_EQ(res.status, solver::SolveStatus::kIterationLimit);
  }
  EXPECT_TRUE(build_and_solve().optimal());  // guard gone, solver healthy
  EXPECT_EQ(injector.counts().solves_observed, 1);
  EXPECT_EQ(injector.counts().lp_faults, 1);
}

// --- the degradation ladder ------------------------------------------------

TEST_F(ResilienceFixture, AllSolveFaultsStillServeEveryPeriod) {
  // Every LP solve fails => the ladder must bottom out at ECMP (closed form)
  // without throwing, and every TE run must be attributed to a rung.
  FaultConfig fc;
  fc.seed = 3;
  fc.lp_fault_rate = 1.0;
  util::Rng rng(21);
  const auto run = run_with_faults(net_, tms_, {}, config_, fc, rng);
  const auto& r = run.report;
  EXPECT_EQ(r.te_runs, 2);
  ASSERT_EQ(r.rung_by_matrix.size(), 2u);
  ASSERT_EQ(r.solve_seconds_by_matrix.size(), 2u);
  int attributed = 0;
  for (int c : r.fallback_counts) attributed += c;
  EXPECT_EQ(attributed, r.te_runs);
  EXPECT_EQ(r.fallback_counts[static_cast<int>(ctrl::Rung::kPrimary)], 0);
  // With every solve failing, periods are all degraded.
  EXPECT_EQ(r.degraded_periods,
            static_cast<int>(std::ceil(config_.horizon_s /
                                       config_.te_interval_s)));
  EXPECT_TRUE(r.calibration_degraded);
  EXPECT_GT(r.offered_gbps_seconds, 0.0);
  EXPECT_GT(r.delivered_gbps_seconds, 0.0);
}

TEST_F(ResilienceFixture, FaultFreeRunsEntirelyOnPrimaryRung) {
  FaultConfig fc;  // all rates zero
  util::Rng rng(22);
  const auto run = run_with_faults(net_, tms_, {}, config_, fc, rng);
  const auto& r = run.report;
  EXPECT_EQ(r.fallback_counts[static_cast<int>(ctrl::Rung::kPrimary)],
            r.te_runs);
  EXPECT_EQ(r.degraded_periods, 0);
  EXPECT_EQ(r.deadline_overruns, 0);
  EXPECT_FALSE(r.calibration_degraded);
  EXPECT_EQ(run.counts.lp_faults, 0);
}

// The batch controller and the daemon share one offline stage. Given the
// same network, scenarios, seed and LP fault schedule, both make the same
// RWA repair attempts (parallel-safe streams, five attempts, backoff) and
// take the same calibration path, and both report what they lost.
TEST_F(ResilienceFixture, ControllerAndDaemonRepairRwaFaultsAlike) {
  constexpr std::uint64_t kSeed = 31;
  FaultConfig fc;
  fc.seed = 1;
  fc.lp_fault_rate = 0.5;

  ctrl::ControllerReport controller;
  {
    FaultInjector injector(fc);
    ScopedLpFaults faults(injector);
    util::Rng rng(kSeed);
    controller = ctrl::run_controller(net_, {tms_[0]}, {}, config_, rng);
  }
  obs::RunReport daemon;
  {
    FaultInjector injector(fc);
    ScopedLpFaults faults(injector);
    serve::EngineConfig engine_config;
    engine_config.ctrl = config_;
    engine_config.seed = kSeed;
    serve::TickEngine engine(engine_config);
    ASSERT_TRUE(engine.set_topology(net_).ok);
    ASSERT_TRUE(engine.tick(tms_[0]).ok);
    daemon = engine.report();
  }
  // The faults hit the offline stage: RWA solves repaired and lost, and the
  // calibration LP.
  EXPECT_GT(controller.rwa_repairs, 0);
  EXPECT_GT(controller.rwa_scenarios_lost, 0);
  EXPECT_TRUE(controller.calibration_degraded);
  EXPECT_EQ(daemon.rwa_repairs, controller.rwa_repairs);
  EXPECT_EQ(daemon.rwa_scenarios_lost, controller.rwa_scenarios_lost);
  EXPECT_EQ(daemon.calibration_degraded, controller.calibration_degraded);
}

// --- unplanned cuts + emergency restoration --------------------------------

TEST_F(ResilienceFixture, UnplannedCutGetsEmergencyRestoration) {
  // Plans exist only for fiber `planned`; we cut fiber `surprise`, which
  // takes down some of the same IP links, so the exact lookup misses and
  // the nearest-scenario transplant has a donor to serve from. The pair is
  // the most loaded fiber that shares an IP link with another, and the
  // most loaded such partner.
  std::vector<std::pair<double, topo::FiberId>> loaded;
  for (const auto& f : net_.optical.fibers) {
    loaded.emplace_back(net_.provisioned_gbps(f.id), f.id);
  }
  std::sort(loaded.rbegin(), loaded.rend());
  const auto shares_link = [&](topo::FiberId a, topo::FiberId b) {
    const auto la = net_.failed_ip_links({a});
    for (topo::IpLinkId e : net_.failed_ip_links({b})) {
      if (std::find(la.begin(), la.end(), e) != la.end()) return true;
    }
    return false;
  };
  topo::FiberId planned = -1;
  topo::FiberId surprise = -1;
  for (std::size_t i = 0; i < loaded.size() && surprise < 0; ++i) {
    for (std::size_t j = 0; j < loaded.size() && surprise < 0; ++j) {
      if (i != j && shares_link(loaded[i].second, loaded[j].second)) {
        planned = loaded[i].second;
        surprise = loaded[j].second;
      }
    }
  }
  ASSERT_GE(surprise, 0) << "no two fibers share an IP link";
  config_.explicit_scenarios = {{{planned}, 0.01}};

  std::vector<ctrl::FailureEvent> trace{{600.0, surprise, 3.0 * 3600.0}};
  util::Rng rng(23);
  const auto report = ctrl::run_controller(net_, tms_, trace, config_, rng);
  EXPECT_EQ(report.cuts_handled, 1);
  EXPECT_EQ(report.cuts_with_plan, 0);
  EXPECT_EQ(report.unplanned_cuts, 1);
  EXPECT_EQ(report.emergency_restorations, 1);
  EXPECT_EQ(report.restoration_latency_s.size(), 1u);
}

// --- the acceptance sweep --------------------------------------------------

// ISSUE acceptance criteria: across seeded runs totalling >= 100 injected
// solver faults, >= 10 unplanned cuts and >= 3 concurrent double-cuts,
// run_controller never throws, every degradation maps to a rung, and
// availability under faults stays within 2% of the fault-free run.
TEST_F(ResilienceFixture, SeededFaultSweepMeetsAcceptanceCriteria) {
  int total_lp_faults = 0;
  int total_unplanned = 0;
  int total_double_cuts = 0;

  // A raised cutoff leaves the rarer fibers without precomputed scenarios
  // (genuinely unplanned cuts, same in the baseline), and a load light
  // enough that every ladder rung — including failure-aware FFC-1, which
  // reserves scenario headroom — admits the full matrix. The availability
  // criterion then measures restoration robustness, not the admission gap
  // between schemes.
  config_.scenarios.probability_cutoff = 0.004;
  config_.demand_scale = 0.15;

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // A fresh trace per seed, spiked with a concurrent double-cut. Repairs
    // are capped at 20 minutes: the drill needs many cuts in a 2-hour
    // horizon without the whole run spent under 3+ concurrent failures
    // (which no TE scheme in the ladder claims to survive unscathed).
    util::Rng trace_rng(100 + seed);
    auto trace = ctrl::sample_failure_trace(net_, config_.horizon_s,
                                            /*cuts_per_day=*/36.0, trace_rng);
    for (auto& ev : trace) ev.repair_s = std::min(ev.repair_s, 1200.0);
    DoubleCutParams dc;
    dc.pairs = 1;
    dc.gap_s = 120.0;
    dc.repair_s = 900.0;
    inject_double_cuts(trace, net_, config_.horizon_s, dc, trace_rng);

    FaultConfig fc;
    fc.seed = seed;
    fc.lp_fault_rate = 0.6;
    fc.plan_drop_rate = 0.1;
    fc.plan_delay_rate = 0.3;
    fc.plan_delay_s = 20.0;

    util::Rng faulted_rng(200 + seed);
    FaultedRun run;
    ASSERT_NO_THROW(run = run_with_faults(net_, tms_, trace, config_, fc,
                                          faulted_rng))
        << "seed " << seed;
    const auto& r = run.report;

    // Every TE solve is attributed to exactly one ladder rung.
    int attributed = 0;
    for (int c : r.fallback_counts) attributed += c;
    EXPECT_EQ(attributed, r.te_runs) << "seed " << seed;
    EXPECT_EQ(static_cast<int>(r.rung_by_matrix.size()), r.te_runs);

    // Fault-free baseline on the same trace (no TM jitter configured, so
    // offered load matches exactly).
    FaultConfig clean;
    clean.seed = seed;
    util::Rng clean_rng(200 + seed);
    const auto base = run_with_faults(net_, tms_, trace, config_, clean,
                                      clean_rng);
    EXPECT_NEAR(r.availability, base.report.availability, 0.02)
        << "seed " << seed;

    total_lp_faults += run.counts.lp_faults;
    total_unplanned += r.unplanned_cuts;
    total_double_cuts += r.overlapping_cuts;
  }

  EXPECT_GE(total_lp_faults, 100);
  EXPECT_GE(total_unplanned, 10);
  EXPECT_GE(total_double_cuts, 3);
}

// --- determinism under faults (satellite) ----------------------------------

TEST_F(ResilienceFixture, FaultedRunIsBitIdenticalGivenSeed) {
  util::Rng trace_rng(31);
  auto trace = ctrl::sample_failure_trace(net_, config_.horizon_s, 24.0,
                                          trace_rng);
  DoubleCutParams dc;
  inject_double_cuts(trace, net_, config_.horizon_s, dc, trace_rng);

  FaultConfig fc;
  fc.seed = 9;
  fc.lp_fault_rate = 0.5;
  fc.plan_drop_rate = 0.25;
  fc.plan_delay_rate = 0.25;
  fc.tm_jitter_sigma = 0.1;

  util::Rng r1(77), r2(77);
  const auto a = run_with_faults(net_, tms_, trace, config_, fc, r1);
  const auto b = run_with_faults(net_, tms_, trace, config_, fc, r2);

  EXPECT_EQ(a.counts.solves_observed, b.counts.solves_observed);
  EXPECT_EQ(a.counts.lp_faults, b.counts.lp_faults);
  EXPECT_EQ(a.report.rung_by_matrix, b.report.rung_by_matrix);
  EXPECT_EQ(a.report.fallback_counts, b.report.fallback_counts);
  EXPECT_EQ(a.report.unplanned_cuts, b.report.unplanned_cuts);
  EXPECT_EQ(a.report.emergency_restorations, b.report.emergency_restorations);
  EXPECT_EQ(a.report.plans_dropped, b.report.plans_dropped);
  EXPECT_EQ(a.report.plans_delayed, b.report.plans_delayed);
  EXPECT_EQ(a.report.to_json(), b.report.to_json());
  EXPECT_EQ(a.report.offered_gbps_seconds, b.report.offered_gbps_seconds);
  EXPECT_EQ(a.report.delivered_gbps_seconds, b.report.delivered_gbps_seconds);
  EXPECT_EQ(a.report.lost_gbps_seconds, b.report.lost_gbps_seconds);
  EXPECT_EQ(a.report.transient_loss_gbps_seconds,
            b.report.transient_loss_gbps_seconds);
}

// --- double-cut injection --------------------------------------------------

TEST(DoubleCuts, InjectedPairsAreConcurrentAndDistinct) {
  const topo::Network net = topo::build_b4();
  std::vector<ctrl::FailureEvent> trace;
  DoubleCutParams dc;
  dc.pairs = 5;
  dc.gap_s = 60.0;
  util::Rng rng(55);
  inject_double_cuts(trace, net, 24.0 * 3600.0, dc, rng);
  ASSERT_EQ(trace.size(), 10u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].t_s, trace[i - 1].t_s);  // sorted
  }
  // Each pair overlaps: the partner lands gap_s later, repairs are hours.
  for (const auto& ev : trace) {
    EXPECT_GT(ev.repair_s, dc.gap_s);
    EXPECT_GE(ev.fiber, 0);
    EXPECT_LT(ev.fiber, static_cast<int>(net.optical.fibers.size()));
  }
}

// --- topo::validate diagnostics pass (satellite) ---------------------------

TEST(TopoValidate, CleanNetworkHasNoIssues) {
  const topo::Network net = topo::build_b4();
  EXPECT_TRUE(topo::validate(net).empty());
}

TEST(TopoValidate, CollectsAllViolationsWithoutThrowing) {
  topo::Network net;
  net.name = "broken";
  net.num_sites = 2;
  net.roadm_of_site = {0, 1};
  net.optical.num_roadms = 2;
  topo::Fiber f;
  f.id = 0;
  f.a = 0;
  f.b = 5;  // endpoint out of range
  f.length_km = -3.0;  // negative length
  f.slots = 0;  // non-positive spectrum
  net.optical.fibers.push_back(f);
  topo::Fiber dup = f;
  net.optical.fibers.push_back(dup);  // duplicate id

  topo::IpLink link;
  link.id = 0;
  link.src = 0;
  link.dst = 0;  // self-loop
  topo::Wavelength w;
  w.slot = -1;         // negative slot
  w.gbps = -100.0;     // negative capacity
  w.fiber_path = {7};  // dangling fiber reference
  link.waves.push_back(w);
  net.ip_links.push_back(link);

  const auto issues = topo::validate(net);
  EXPECT_GE(issues.size(), 6u);
  const auto contains = [&issues](const std::string& needle) {
    for (const auto& s : issues) {
      if (s.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("duplicate fiber"));
  EXPECT_TRUE(contains("endpoint out of range"));
  EXPECT_TRUE(contains("negative length"));
  EXPECT_TRUE(contains("non-positive spectrum"));
  EXPECT_TRUE(contains("self-loop"));
  EXPECT_TRUE(contains("dangling fiber reference"));
  EXPECT_TRUE(contains("non-positive wavelength capacity"));
}

}  // namespace
}  // namespace arrow::resilience

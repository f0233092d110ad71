// Restoration-scheme subsystem suite (ctest label: schemes): the registry
// round-trip, the registry-dispatched sweep (byte-identical at any thread
// count), every registered scheme under both the controller and the daemon,
// plus the ReWeave localized-repair and PXT trail-provisioning machinery.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "schemes/builtin.h"
#include "schemes/pxt.h"
#include "schemes/reweave.h"
#include "schemes/scheme.h"
#include "serve/engine.h"
#include "sim/sweep.h"
#include "solver/lp.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"

namespace arrow {
namespace {

struct Workload {
  topo::Network net;
  std::vector<traffic::TrafficMatrix> matrices;
  std::vector<scenario::Scenario> scenarios;
  te::TunnelParams tunnels;

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
  }

  te::TeInput input(double load) const {
    te::TeInput in(net, matrices[0], scenarios, tunnels);
    in.scale_demands(te::max_satisfiable_scale(in) * load);
    return in;
  }
};

// --- registry ---------------------------------------------------------------

TEST(SchemeRegistry, BuiltinsRegisteredInCanonicalOrder) {
  const auto names = schemes::Registry::global().names();
  const std::vector<std::string> want = {"ARROW",  "ARROW-Naive",
                                         "FFC-1",  "FFC-2",
                                         "TeaVaR", "ECMP",
                                         "ReWeave-Local", "PXT"};
  EXPECT_EQ(names, want);
  for (const auto& name : want) {
    EXPECT_TRUE(schemes::Registry::global().contains(name)) << name;
  }
}

TEST(SchemeRegistry, CreateRoundTripsNamesAndCapabilities) {
  const auto& registry = schemes::Registry::global();
  for (const auto& name : registry.names()) {
    const auto scheme = registry.create(name);
    ASSERT_NE(scheme, nullptr) << name;
    EXPECT_EQ(scheme->name(), name);
  }
  EXPECT_TRUE(registry.capabilities("ARROW").needs_prepared);
  EXPECT_FALSE(registry.capabilities("ARROW").supports_local_repair);
  EXPECT_TRUE(registry.capabilities("ARROW-Naive").needs_prepared);
  EXPECT_FALSE(registry.capabilities("FFC-1").needs_prepared);
  EXPECT_TRUE(
      registry.capabilities("ReWeave-Local").supports_local_repair);
  EXPECT_FALSE(registry.capabilities("ReWeave-Local").needs_prepared);
}

TEST(SchemeRegistry, UnknownSchemeErrorListsRegisteredNames) {
  const auto& registry = schemes::Registry::global();
  try {
    registry.create("SWAN");
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown scheme 'SWAN'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("registered:"), std::string::npos) << msg;
    for (const auto& name : registry.names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

TEST(SchemeRegistry, LocalRegistriesAreIsolatedFromGlobal) {
  schemes::Registry local;
  EXPECT_EQ(local.names(), schemes::Registry::global().names());
  local.add("custom", [](const schemes::SchemeOptions& options) {
    return schemes::make_ecmp(options);
  });
  EXPECT_TRUE(local.contains("custom"));
  EXPECT_FALSE(schemes::Registry::global().contains("custom"));
  // Replacing a factory keeps the position (names() is registration order).
  local.add("ECMP", schemes::make_ecmp);
  EXPECT_EQ(local.names()[5], "ECMP");
}

// --- adapter equivalence ----------------------------------------------------

// The registry-dispatched sweep must be byte-for-byte identical at any
// thread count. Exact double equality on purpose.
TEST(SchemeAdapters, SweepByNameListIsByteIdenticalAcrossThreadCounts) {
  Workload w;
  sim::SweepParams params;
  params.scales = {0.4, 0.8};
  // Without FFC-2 and TeaVaR: keep the suite fast; FFC-2 shares the
  // adapter code path with FFC-1.
  params.schemes = {"ARROW", "ARROW-Naive", "FFC-1", "ECMP"};
  params.arrow.tickets.num_tickets = 3;

  util::ThreadPool pool1(1);
  util::Rng rng_base(31);
  const sim::SweepResult base =
      sim::run_sweep(w.net, w.matrices, w.scenarios, params, rng_base, pool1);
  ASSERT_EQ(base.schemes,
            (std::vector<std::string>{"ARROW", "ARROW-Naive", "FFC-1",
                                      "ECMP"}));

  for (int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    util::Rng rng(31);
    const sim::SweepResult got =
        sim::run_sweep(w.net, w.matrices, w.scenarios, params, rng, pool);
    EXPECT_EQ(got.schemes, base.schemes) << "threads=" << threads;
    EXPECT_EQ(got.scales, base.scales);
    for (const auto& s : base.schemes) {
      ASSERT_EQ(got.availability.at(s).size(), base.availability.at(s).size());
      for (std::size_t si = 0; si < base.scales.size(); ++si) {
        EXPECT_EQ(got.availability.at(s)[si], base.availability.at(s)[si])
            << s << " scale " << si << " threads=" << threads;
        EXPECT_EQ(got.throughput.at(s)[si], base.throughput.at(s)[si])
            << s << " scale " << si << " threads=" << threads;
      }
      EXPECT_EQ(got.simplex_iterations.at(s), base.simplex_iterations.at(s))
          << s << " threads=" << threads;
      EXPECT_EQ(got.solve_failures.at(s), base.solve_failures.at(s));
      // The legacy six never weave repairs: telemetry must stay zero.
      EXPECT_EQ(got.repair_cuts.at(s), 0) << s;
    }
  }
}

// Callers that never set SweepParams::schemes race the paper's six, in the
// canonical order.
TEST(SchemeAdapters, SweepDefaultsToThePapersSixSchemesInCanonicalOrder) {
  const auto registered = schemes::Registry::global().names();
  EXPECT_EQ(sim::SweepParams{}.schemes,
            std::vector<std::string>(registered.begin(),
                                     registered.begin() + 6));
}

TEST(SchemeAdapters, SweepRejectsUnknownSchemeNameUpFront) {
  Workload w;
  sim::SweepParams params;
  params.scales = {0.4};
  params.schemes = {"ECMP", "B4-TE"};
  util::Rng rng(1);
  try {
    sim::run_sweep(w.net, w.matrices, w.scenarios, params, rng);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown scheme 'B4-TE'"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("registered:"), std::string::npos);
  }
}

TEST(SweepResult, MaxScaleAtUnknownSchemeNamesSweptAndRegistered) {
  sim::SweepResult r;
  r.scales = {1.0, 2.0};
  r.schemes = {"X"};
  r.availability["X"] = {1.0, 0.5};
  EXPECT_GT(r.max_scale_at("X", 0.9), 0.0);  // present: no throw
  try {
    r.max_scale_at("Y", 0.9);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown scheme 'Y'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("registered:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("swept: X"), std::string::npos) << msg;
  }
}

// --- every registered scheme under both loops ---------------------------------

ctrl::ControllerConfig loop_config() {
  ctrl::ControllerConfig config;
  config.horizon_s = 1800.0;
  config.te_interval_s = 600.0;
  config.tunnels.tunnels_per_flow = 4;
  config.arrow.tickets.num_tickets = 2;
  config.scenarios.probability_cutoff = 0.005;
  config.demand_scale = 0.4;
  config.te_budget_s = 60.0;  // wide: every period must land on primary
  return config;
}

// A scheme is a registry name end to end: every registered scheme runs a
// short controller horizon with one cut, and a daemon tick, cut and repair,
// each TE period served by the scheme itself (the primary rung).
TEST(SchemeLoops, EveryRegisteredSchemeRunsUnderControllerAndDaemon) {
  Workload w;
  const topo::FiberId fiber = 0;
  for (const auto& name : schemes::Registry::global().names()) {
    ctrl::ControllerConfig config = loop_config();
    config.scheme = name;
    util::Rng rng(5);
    const auto report = ctrl::run_controller(
        w.net, w.matrices, {{600.0, fiber, 600.0}}, config, rng);
    EXPECT_EQ(report.te_runs, 1) << name;
    EXPECT_EQ(report.fallback_counts[0], report.te_runs) << name;
    EXPECT_EQ(report.cuts_handled, 1) << name;
    EXPECT_EQ(report.scheme, name);

    serve::EngineConfig engine_config;
    engine_config.ctrl = config;
    serve::TickEngine engine(engine_config);
    ASSERT_TRUE(engine.set_topology(w.net).ok) << name;
    const auto tick = engine.tick(w.matrices[0]);
    ASSERT_TRUE(tick.ok) << name << ": " << tick.error;
    EXPECT_EQ(tick.rung, ctrl::Rung::kPrimary) << name;
    const auto cut = engine.cut(fiber);
    EXPECT_TRUE(cut.ok) << name << ": " << cut.error;
    EXPECT_TRUE(engine.repair(fiber)) << name;
    const obs::RunReport rr = engine.report();
    EXPECT_EQ(rr.scheme, name);
    EXPECT_EQ(rr.cuts_handled, 1) << name;
  }
}

TEST(SchemeLoops, UnknownSchemeFailsBeforeAnyLpWithRegisteredNames) {
  Workload w;
  ctrl::ControllerConfig config = loop_config();
  config.scheme = "SWAN";
  int solves = 0;
  solver::ScopedSolveObserver count(
      [&](const solver::Lp&, solver::LpSolution&) { ++solves; });
  util::Rng rng(5);
  try {
    ctrl::run_controller(w.net, w.matrices, {}, config, rng);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()),
              schemes::Registry::global().unknown_message("SWAN"));
  }
  EXPECT_EQ(solves, 0);

  serve::EngineConfig engine_config;
  engine_config.ctrl = config;
  serve::TickEngine engine(engine_config);
  const auto res = engine.set_topology(w.net);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, schemes::Registry::global().unknown_message("SWAN"));
  EXPECT_FALSE(engine.tick(w.matrices[0]).ok);
  EXPECT_EQ(solves, 0);
}

// --- ReWeave localized repair -----------------------------------------------

TEST(ReWeave, LocalRepairMatchesGlobalResolveOnFeasibleCuts) {
  Workload w;
  // 0.4 of the max satisfiable scale: enough headroom that most cuts repair
  // locally, hot enough that some must fall back — both paths get covered.
  const te::TeInput input = w.input(0.4);
  te::TeSolution plan = te::solve_max_throughput(input);
  ASSERT_TRUE(plan.optimal);

  int locals = 0;
  for (int q = 0; q < input.num_scenarios(); ++q) {
    const auto& failed = input.failed_links(q);
    const auto outcome = schemes::local_repair(input, plan, failed);
    ASSERT_TRUE(outcome.ok) << "scenario " << q;
    const te::TeSolution global = schemes::global_resolve(input, failed);
    ASSERT_TRUE(global.optimal) << "scenario " << q;
    double global_admitted = 0.0;
    for (double b : global.admitted) global_admitted += b;
    double repaired_admitted = 0.0;
    for (double b : outcome.plan.admitted) repaired_admitted += b;
    if (outcome.local) {
      ++locals;
      // Full local recovery is a feasible point admitting every flow's
      // demand, i.e. the global optimum: delivered capacity must agree.
      EXPECT_NEAR(outcome.recovered_gbps, outcome.affected_demand_gbps, 1e-6)
          << "scenario " << q;
      EXPECT_NEAR(repaired_admitted, global_admitted, 1e-6)
          << "scenario " << q;
    } else {
      // The fallback *is* the global re-solve.
      EXPECT_TRUE(outcome.fell_back_global) << "scenario " << q;
      EXPECT_NEAR(repaired_admitted, global_admitted, 1e-6);
    }
  }
  EXPECT_GT(locals, 0) << "no scenario exercised the local fast path";
}

TEST(ReWeave, UnaffectedFlowsKeepTheirAllocationByteForByte) {
  Workload w;
  const te::TeInput input = w.input(0.4);
  const te::TeSolution plan = te::solve_max_throughput(input);
  ASSERT_TRUE(plan.optimal);

  int checked = 0;
  for (int q = 0; q < input.num_scenarios(); ++q) {
    const auto& failed = input.failed_links(q);
    const auto outcome = schemes::local_repair(input, plan, failed);
    if (!outcome.ok || !outcome.local) continue;
    // Flows owning a tunnel across a failed link were re-optimized; every
    // other flow's installed allocation must be untouched.
    std::set<int> affected;
    for (topo::IpLinkId e : failed) {
      for (const auto& lt : input.tunnels_on_link(e)) {
        affected.insert(lt.flow);
      }
    }
    for (int f = 0; f < input.num_flows(); ++f) {
      if (affected.count(f) != 0) continue;
      EXPECT_EQ(outcome.plan.alloc[static_cast<std::size_t>(f)],
                plan.alloc[static_cast<std::size_t>(f)])
          << "scenario " << q << " flow " << f;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ReWeave, NoFallbackWhenDisallowedAndLatencyIsDeterministic) {
  Workload w;
  const te::TeInput input = w.input(0.6);
  const te::TeSolution plan = te::solve_max_throughput(input);
  ASSERT_TRUE(plan.optimal);

  schemes::ReWeaveParams params;
  params.allow_global_fallback = false;
  for (int q = 0; q < input.num_scenarios(); ++q) {
    const auto outcome =
        schemes::local_repair(input, plan, input.failed_links(q), params);
    // With the fallback off, every outcome is either a pure local success
    // or an honest failure — never a global plan in local clothing.
    EXPECT_FALSE(outcome.fell_back_global);
    EXPECT_EQ(outcome.ok, outcome.local);
  }
}

// --- PXT trails -------------------------------------------------------------

TEST(Pxt, ReservationsAreDisjointFromProvisionedSpectrum) {
  Workload w;
  const auto trails = schemes::plan_trails(w.net, w.scenarios);
  EXPECT_GT(trails.trails, 0);
  EXPECT_GT(trails.reserved_gbps, 0.0);

  const auto occupancy = w.net.spectrum_occupancy();
  ASSERT_EQ(trails.reserved_slots.size(), w.net.optical.fibers.size());
  int counted = 0;
  for (std::size_t f = 0; f < trails.reserved_slots.size(); ++f) {
    int prev = -1;
    for (int slot : trails.reserved_slots[f]) {
      // Ascending and unique per fiber, never on a lit wavelength —
      // dedicated protection must not collide with working spectrum.
      EXPECT_GT(slot, prev) << "fiber " << f;
      prev = slot;
      ASSERT_LT(slot, w.net.optical.fibers[f].slots);
      EXPECT_FALSE(occupancy[f][static_cast<std::size_t>(slot)])
          << "fiber " << f << " slot " << slot;
      ++counted;
    }
  }
  EXPECT_EQ(counted, trails.reserved_slot_count);
}

TEST(Pxt, RestoredCapacityCoversOnlyFailedLinksAndRespectsWaveCap) {
  Workload w;
  schemes::PxtParams params;
  params.max_trail_waves = 1;
  const auto trails = schemes::plan_trails(w.net, w.scenarios, params);
  ASSERT_EQ(trails.restored.size(), w.scenarios.size());

  for (std::size_t q = 0; q < w.scenarios.size(); ++q) {
    const auto failed = w.net.failed_ip_links(w.scenarios[q].cuts);
    const std::set<topo::IpLinkId> failed_set(failed.begin(), failed.end());
    for (const auto& [link, gbps] : trails.restored[q]) {
      EXPECT_TRUE(failed_set.count(link) != 0)
          << "scenario " << q << " restored a healthy link " << link;
      EXPECT_GT(gbps, 0.0);
    }
  }
  // One wave per link at most: the capped plan reserves no more slots than
  // (scenario, link) pairs times the longest trail, and strictly fewer
  // Gbps than the uncapped plan on any workload that loses >1 wave.
  const auto uncapped = schemes::plan_trails(w.net, w.scenarios);
  EXPECT_LE(trails.reserved_gbps, uncapped.reserved_gbps);
  EXPECT_LE(trails.reserved_slot_count, uncapped.reserved_slot_count);
}

TEST(Pxt, SchemeSolveCarriesTrailRestorationIntoTheEvaluator) {
  Workload w;
  const te::TeInput input = w.input(0.5);
  const auto& registry = schemes::Registry::global();
  const auto pxt = registry.create("PXT");
  util::ThreadPool pool(1);
  te::ArrowPrepared unused;
  const te::TeSolution sol = pxt->solve(input, unused, pool, nullptr);
  ASSERT_TRUE(sol.optimal);
  EXPECT_EQ(sol.scheme, "PXT");
  ASSERT_EQ(sol.restored.size(), w.scenarios.size());

  // Cut answer: pure lookup, transponder-speed latency, zero solve cost.
  // Every trail wave of the scenario comes up at the switchover.
  for (int q = 0; q < input.num_scenarios(); ++q) {
    const schemes::CutContext ctx{
        input, sol, w.scenarios[static_cast<std::size_t>(q)].cuts, q};
    const auto repair = pxt->on_cut(ctx);
    EXPECT_TRUE(repair.ok);
    EXPECT_TRUE(repair.planned);
    // An optical answer, not an IP-layer repair.
    EXPECT_FALSE(repair.local);
    EXPECT_EQ(repair.simplex_iterations, 0);
    const schemes::PxtParams defaults;
    EXPECT_DOUBLE_EQ(repair.latency_s,
                     defaults.detection_s + defaults.switchover_s);
    const auto& trails = sol.restored[static_cast<std::size_t>(q)];
    ASSERT_EQ(repair.timeline.size(), trails.size());
    double lit = 0.0;
    for (const auto& point : repair.timeline) {
      EXPECT_DOUBLE_EQ(point.t_s, repair.latency_s);
      EXPECT_DOUBLE_EQ(point.wave_gbps, trails.at(point.link));
      lit += point.wave_gbps;
    }
    EXPECT_DOUBLE_EQ(repair.restored_gbps, lit);
  }
  // An unplanned cut has no trail to switch onto.
  const std::vector<topo::FiberId> none;
  EXPECT_FALSE(pxt->on_cut({input, sol, none}).ok);
}

// --- new entrants through the sweep -----------------------------------------

TEST(SchemeSweep, ReWeaveAndPxtRideTheSweepWithRepairTelemetry) {
  Workload w;
  sim::SweepParams params;
  params.scales = {0.4, 0.8};
  params.schemes = {"ECMP", "ReWeave-Local", "PXT"};
  util::Rng rng(17);
  util::ThreadPool pool(2);
  const auto result =
      sim::run_sweep(w.net, w.matrices, w.scenarios, params, rng, pool);

  EXPECT_EQ(result.schemes, params.schemes);
  EXPECT_EQ(result.total_solve_failures(), 0);
  for (const auto& s : params.schemes) {
    for (double a : result.availability.at(s)) {
      EXPECT_GE(a, 0.0);
      EXPECT_LE(a, 1.0 + 1e-9);
    }
  }
  // Every (scale, scenario) pair weaves one repair; ECMP and PXT never
  // touch the repair LP.
  EXPECT_EQ(result.repair_cuts.at("ReWeave-Local"),
            static_cast<long long>(params.scales.size()) *
                static_cast<long long>(w.scenarios.size()));
  EXPECT_EQ(result.repair_cuts.at("ECMP"), 0);
  EXPECT_GE(result.repair_local.at("ReWeave-Local"), 0);
  EXPECT_EQ(result.repair_local.at("ReWeave-Local") +
                result.repair_fallbacks.at("ReWeave-Local"),
            result.repair_cuts.at("ReWeave-Local"));
  EXPECT_GT(result.repair_latency_s.at("ReWeave-Local"), 0.0);
  EXPECT_EQ(result.repair_simplex_iterations.at("PXT"), 0);
  // PXT answers cuts from pre-provisioned trails: its scenarios are scored
  // through TeSolution::restored, not on_cut, so repair telemetry is zero
  // but availability must beat the repair-less max-throughput twin at the
  // same load... which is ECMP-adjacent; just sanity-check the range here.
  EXPECT_EQ(result.repair_cuts.at("PXT"), 0);
}

}  // namespace
}  // namespace arrow

// Daemon suite for arrowctl serve (ctest label: serve): wire protocol
// units, TickEngine lifecycle, the socket front end, and two drills —
// SIGTERM drain (self-exec child daemon, parent signals, journal + final
// RunReport must land) and restart recovery (a faulted successor engine
// adopts the journaled plan via carry-forward).
//
// This file supplies its own main(): the drain drill needs argv[0] and an
// environment-variable child mode, which gtest_main cannot provide.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "controller/journal.h"
#include "obs/json.h"
#include "optical/latency.h"
#include "optical/rwa.h"
#include "resilience/chaos.h"
#include "schemes/scheme.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "solver/basis_store.h"
#include "solver/lp.h"
#include "solver/model.h"
#include "te/arrow.h"
#include "topo/builders.h"
#include "topo/io.h"
#include "traffic/traffic.h"
#include "util/clock.h"
#include "util/fs.h"
#include "util/rng.h"

namespace arrow {
namespace {

const char* g_argv0 = "";

// Child-mode marker: directory for the child daemon's socket/journal/obs.
constexpr const char* kServeChildEnv = "ARROW_SERVE_CHILD";

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

topo::Network test_net() { return topo::build_testbed(); }

traffic::TrafficMatrix test_tm(const topo::Network& net, std::uint64_t seed) {
  util::Rng rng(seed);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  return traffic::generate_traffic(net, tp, rng)[0];
}

serve::EngineConfig test_config() {
  serve::EngineConfig config;
  config.ctrl.te_budget_s = 5.0;  // generous: sanitizer builds are slow
  config.ctrl.tunnels.tunnels_per_flow = 4;
  config.ctrl.arrow.tickets.num_tickets = 4;
  config.ctrl.scenarios.probability_cutoff = 0.002;
  return config;
}

// --- protocol units ---------------------------------------------------------

TEST(ServeProtocol, ParseRequestValidatesShapeAndOp) {
  obs::JsonValue v;
  std::string err;
  EXPECT_FALSE(serve::parse_request("not json", &v, &err));
  EXPECT_FALSE(serve::parse_request("[1,2]", &v, &err));
  EXPECT_FALSE(serve::parse_request("{\"x\": 1}", &v, &err));  // no op
  EXPECT_TRUE(serve::parse_request("{\"op\": \"hello\"}", &v, &err)) << err;
  EXPECT_EQ(v.text("op"), "hello");
}

TEST(ServeProtocol, ReplyLinesAreSingleLineJsonWithOkField) {
  obs::JsonValue fields;
  fields.object["n"] = serve::jnum(2.5);
  const std::string ok = serve::ok_line(std::move(fields));
  ASSERT_FALSE(ok.empty());
  EXPECT_EQ(ok.back(), '\n');
  EXPECT_EQ(ok.find('\n'), ok.size() - 1);  // exactly one: NDJSON framing
  obs::JsonValue back;
  ASSERT_TRUE(obs::json_parse(ok.substr(0, ok.size() - 1), &back));
  EXPECT_TRUE(back.find("ok")->boolean);
  EXPECT_DOUBLE_EQ(back.find("n")->number, 2.5);

  const std::string err = serve::error_line("boom \"quoted\"");
  ASSERT_TRUE(obs::json_parse(err.substr(0, err.size() - 1), &back));
  EXPECT_FALSE(back.find("ok")->boolean);
  EXPECT_EQ(back.text("error"), "boom \"quoted\"");
}

TEST(ServeProtocol, ParseDemandsValidates) {
  traffic::TrafficMatrix tm;
  std::string err;
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse("[[0, 1, 10.5], [1, 2, 0]]", &v));
  ASSERT_TRUE(serve::parse_demands(v, &tm, &err)) << err;
  ASSERT_EQ(tm.demands.size(), 2u);
  EXPECT_EQ(tm.demands[0].src, 0);
  EXPECT_EQ(tm.demands[0].dst, 1);
  EXPECT_DOUBLE_EQ(tm.demands[0].gbps, 10.5);

  for (const char* bad : {"{}", "[[0, 1]]", "[[0, 0, 5]]", "[[-1, 1, 5]]",
                          "[[0, 1, -5]]", "[[0, 1, \"x\"]]", "[[0.5, 1, 5]]",
                          "[[0, 1e10, 5]]", "[[0, 1, 5], [-3e9, 1, 5]]"}) {
    ASSERT_TRUE(obs::json_parse(bad, &v)) << bad;
    EXPECT_FALSE(serve::parse_demands(v, &tm, &err)) << bad;
  }
  // The JSON reader refuses nan and inf, so only a built value carries one.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& cells : std::vector<std::vector<double>>{
           {nan, 1, 5}, {0, inf, 5}, {0, 1, nan}, {0, 1, inf}}) {
    obs::JsonValue row;
    row.type = obs::JsonValue::Type::kArray;
    for (const double c : cells) row.array.push_back(serve::jnum(c));
    v = obs::JsonValue{};
    v.type = obs::JsonValue::Type::kArray;
    v.array = {row};
    EXPECT_FALSE(serve::parse_demands(v, &tm, &err));
  }
}

TEST(ServeProtocol, ParseIdRefusesWhatAnIntCannotHold) {
  int id = -7;
  ASSERT_TRUE(serve::parse_id(serve::jnum(12), &id));
  EXPECT_EQ(id, 12);
  ASSERT_TRUE(serve::parse_id(serve::jnum(-1), &id));
  EXPECT_EQ(id, -1);
  for (const double bad : {0.5, -2.25, 3e9, -3e9, 1e300,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    id = -7;
    EXPECT_FALSE(serve::parse_id(serve::jnum(bad), &id)) << bad;
    EXPECT_EQ(id, -7) << bad;
  }
  EXPECT_FALSE(serve::parse_id(serve::jstr("3"), &id));
}

TEST(ServeProtocol, HttpGetDetectionAndResponseFraming) {
  std::string target;
  EXPECT_TRUE(serve::is_http_get("GET /metrics HTTP/1.1\r", &target));
  EXPECT_EQ(target, "/metrics");
  EXPECT_TRUE(serve::is_http_get("GET /report", &target));
  EXPECT_EQ(target, "/report");
  EXPECT_FALSE(serve::is_http_get("{\"op\": \"hello\"}", &target));
  EXPECT_FALSE(serve::is_http_get("GET ", &target));

  const std::string resp = serve::http_response("body", "text/plain");
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("Content-Length: 4\r\n"), std::string::npos);
  EXPECT_EQ(resp.substr(resp.size() - 4), "body");
}

// --- engine lifecycle -------------------------------------------------------

TEST(ServeEngine, TickCutRepairAndReport) {
  const topo::Network net = test_net();
  serve::TickEngine engine(test_config());
  EXPECT_FALSE(engine.has_topology());

  const auto topo_res = engine.set_topology(net);
  ASSERT_TRUE(topo_res.ok) << topo_res.error;
  EXPECT_EQ(topo_res.sites, net.num_sites);
  EXPECT_EQ(topo_res.fibers, static_cast<int>(net.optical.fibers.size()));
  EXPECT_GT(topo_res.scenarios, 0);

  const auto tm = test_tm(net, 7);
  const auto t1 = engine.tick(tm);
  ASSERT_TRUE(t1.ok) << t1.error;
  EXPECT_EQ(t1.tick, 1);
  EXPECT_FALSE(t1.rung_regression);  // first tick can't regress
  EXPECT_GT(t1.seconds, 0.0);

  const auto t2 = engine.tick(tm);
  ASSERT_TRUE(t2.ok) << t2.error;
  EXPECT_EQ(t2.tick, 2);
  EXPECT_EQ(engine.ticks(), 2);
  EXPECT_GT(engine.tick_p99_s(), 0.0);
  EXPECT_GE(engine.tick_p99_s(), engine.tick_p50_s());

  const auto cut = engine.cut(0);
  ASSERT_TRUE(cut.ok) << cut.error;
  EXPECT_EQ(engine.active_cuts(), 1);
  EXPECT_FALSE(engine.cut(0).ok);  // already cut
  EXPECT_TRUE(engine.repair(0));
  EXPECT_EQ(engine.active_cuts(), 0);
  EXPECT_FALSE(engine.repair(0));  // not cut

  const obs::RunReport report = engine.report();
  EXPECT_EQ(report.te_runs, 2);
  EXPECT_EQ(report.cuts_handled, 1);
  EXPECT_GT(report.availability, 0.0);

  engine.drain();
  EXPECT_TRUE(engine.drained());
  EXPECT_FALSE(engine.tick(tm).ok);  // drained engines refuse work
  engine.drain();  // idempotent
}

// Cut fast-path drill: with a scheme whose registry capabilities advertise
// supports_local_repair, a cut must be answered by weaving the installed
// plan around the failure (or an honest global fallback) — never by the
// unplanned-cut path — and the repair telemetry must land in the RunReport.
TEST(ServeEngine, ReWeaveCutFastPathDrill) {
  serve::EngineConfig config = test_config();
  config.ctrl.scheme = "ReWeave-Local";
  serve::TickEngine engine(config);

  ASSERT_TRUE(engine.set_topology(test_net()).ok);
  const auto tm = test_tm(test_net(), 7);
  const auto t1 = engine.tick(tm);
  ASSERT_TRUE(t1.ok) << t1.error;

  const auto cut = engine.cut(0);
  ASSERT_TRUE(cut.ok) << cut.error;
  EXPECT_FALSE(cut.planned);  // ReWeave precomputes nothing optical
  EXPECT_TRUE(cut.local_repair || cut.fell_back_global);
  if (cut.local_repair) {
    // Detection + repair solve + rebalance: strictly positive, and far
    // below an optical restoration's ROADM reconfiguration budget.
    EXPECT_GT(cut.latency_s, 0.0);
  }

  const obs::RunReport report = engine.report();
  EXPECT_EQ(report.cuts_handled, 1);
  EXPECT_EQ(report.local_repairs + report.local_repair_fallbacks, 1);
  EXPECT_GE(report.local_repair_seconds, 0.0);
  if (report.local_repairs == 1) {
    EXPECT_GT(report.restoration_p99_s, 0.0);
  }

  // The next tick re-solves from scratch and must stay healthy with the
  // fiber still dark.
  const auto t2 = engine.tick(tm);
  ASSERT_TRUE(t2.ok) << t2.error;
  EXPECT_TRUE(engine.repair(0));
  engine.drain();
}

// The daemon's RunReport after a fixed B4 tick/cut/repair sequence under
// ReWeave-Local, pinned byte for byte: the ladder, the cut counts, the
// local repair counters (local and global fallback alike) and the
// availability integrated over the clock. A rewoven plan's latency includes its repair's wall-clock
// solve time, so local_repair_seconds and the restoration latency
// percentiles are zeroed before the comparison.
TEST(ServeEngine, ReWeaveRunReportIsPinned) {
  serve::EngineConfig config = test_config();
  config.ctrl.scheme = "ReWeave-Local";
  config.ctrl.demand_scale = 0.3;
  const topo::Network net = topo::build_b4();
  serve::TickEngine engine(config);
  ASSERT_TRUE(engine.set_topology(net).ok);
  ASSERT_TRUE(engine.tick(test_tm(net, 7)).ok);
  ASSERT_TRUE(engine.cut(0).ok);
  ASSERT_TRUE(engine.repair(0));
  ASSERT_TRUE(engine.cut(3).ok);
  ASSERT_TRUE(engine.cut(7).ok);
  ASSERT_TRUE(engine.tick(test_tm(net, 8)).ok);
  ASSERT_TRUE(engine.repair(3));
  ASSERT_TRUE(engine.repair(7));
  ASSERT_TRUE(engine.tick(test_tm(net, 9)).ok);
  ASSERT_TRUE(engine.cut(11).ok);

  obs::RunReport report = engine.report();
  EXPECT_GT(report.local_repairs, 0);
  EXPECT_GT(report.local_repair_fallbacks, 0);
  EXPECT_GT(report.local_repair_pivots, 0);
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
  EXPECT_EQ(report.to_json(), R"({
  "version": 7,
  "run_id": "run",
  "scheme": "ReWeave-Local",
  "traffic_matrices": 3,
  "scenarios": 30,
  "te_runs": 3,
  "ladder": {"primary": 3, "relaxed-retry": 0, "ffc-fallback": 0, "carry-forward": 0, "ecmp": 0},
  "degraded_periods": 0,
  "deadline_overruns": 0,
  "solver_timeouts": 0,
  "backoff_retries": 0,
  "canceled": false,
  "journal_recovered": false,
  "journal_prior_in_flight": false,
  "journal_writes": 0,
  "journal_write_errors": 0,
  "simplex_iterations": 373,
  "pricing_candidates": 83102,
  "decomposition_rounds": 0,
  "decomposition_cuts": 0,
  "warm_start_hits": 4,
  "warm_start_stores": 10,
  "basis_seeded": 0,
  "basis_absorbed": 0,
  "basis_evictions": 0,
  "basis_save_errors": 0,
  "cuts_handled": 4,
  "cuts_with_plan": 0,
  "unplanned_cuts": 4,
  "emergency_restorations": 0,
  "rwa_repairs": 0,
  "rwa_scenarios_lost": 0,
  "calibration_degraded": false,
  "local_repairs": 4,
  "local_repair_fallbacks": 2,
  "local_repair_pivots": 1148,
  "local_repair_seconds": 0,
  "restorations": 4,
  "restoration_latency_s": {"p50": 0, "p90": 0, "p99": 0, "max": 0},
  "availability": 0.9999979585666955
}
)");
}

// The most loaded fiber that shares an IP link with another fiber, and the
// most loaded such partner: a plan for the first is a transplant donor for
// a cut of the second.
std::pair<topo::FiberId, topo::FiberId> overlapping_fibers(
    const topo::Network& net) {
  std::vector<std::pair<double, topo::FiberId>> loaded;
  for (const auto& f : net.optical.fibers) {
    loaded.emplace_back(net.provisioned_gbps(f.id), f.id);
  }
  std::sort(loaded.rbegin(), loaded.rend());
  for (const auto& [ga, a] : loaded) {
    const auto la = net.failed_ip_links({a});
    for (const auto& [gb, b] : loaded) {
      if (a == b) continue;
      for (topo::IpLinkId e : net.failed_ip_links({b})) {
        if (std::find(la.begin(), la.end(), e) != la.end()) return {a, b};
      }
    }
  }
  return {-1, -1};
}

// The daemon answers a cut with no exact plan the way the controller does:
// the nearest scenario's plan, transplanted onto the cut.
TEST(ServeEngine, UnplannedCutIsServedByATransplant) {
  const topo::Network net = topo::build_b4();
  const auto [planned, surprise] = overlapping_fibers(net);
  ASSERT_GE(surprise, 0) << "no two fibers share an IP link";
  serve::EngineConfig config = test_config();
  config.ctrl.explicit_scenarios = {{{planned}, 0.01}};
  serve::TickEngine engine(config);
  ASSERT_TRUE(engine.set_topology(net).ok);
  ASSERT_TRUE(engine.tick(test_tm(net, 7)).ok);

  const auto cut = engine.cut(surprise);
  ASSERT_TRUE(cut.ok) << cut.error;
  EXPECT_FALSE(cut.planned);
  EXPECT_GT(cut.restored_gbps, 0.0);
  EXPECT_GT(cut.latency_s, 0.0);
  const obs::RunReport report = engine.report();
  EXPECT_EQ(report.cuts_handled, 1);
  EXPECT_EQ(report.cuts_with_plan, 0);
  EXPECT_EQ(report.unplanned_cuts, 1);
  EXPECT_EQ(report.emergency_restorations, 1);
  EXPECT_EQ(report.restorations, 1);
  engine.drain();
}

// A planned cut while another fiber is still down. The scenario's plan was
// made around its own cut only, so the answer assigns slots and replays
// around both cuts: no wave it lights rides the fiber that is still dark,
// and the capacity it restores is what first-fit finds around both.
TEST(ServeEngine, PlannedCutAvoidsAFiberAlreadyCut) {
  constexpr topo::FiberId kHeld = 4;
  constexpr topo::FiberId kCut = 3;
  const topo::Network net = topo::build_b4();
  const std::vector<scenario::Scenario> scenarios = {{{kHeld}, 0.01},
                                                     {{kCut}, 0.01}};
  const traffic::TrafficMatrix tm = test_tm(net, 7);

  // The daemon: the cut alone, then the same cut with kHeld already down.
  serve::EngineConfig config = test_config();
  config.ctrl.explicit_scenarios = scenarios;
  serve::TickEngine engine(config);
  ASSERT_TRUE(engine.set_topology(net).ok);
  ASSERT_TRUE(engine.tick(tm).ok);
  const auto alone = engine.cut(kCut);
  ASSERT_TRUE(alone.ok) << alone.error;
  EXPECT_TRUE(alone.planned);
  ASSERT_TRUE(engine.repair(kCut));
  ASSERT_TRUE(engine.cut(kHeld).ok);
  const auto overlapping = engine.cut(kCut);
  ASSERT_TRUE(overlapping.ok) << overlapping.error;
  EXPECT_TRUE(overlapping.planned);
  EXPECT_LT(overlapping.restored_gbps, alone.restored_gbps);
  engine.drain();

  // The same answer through Scheme::on_cut, against the plan the
  // scenario's ticket gets from first-fit around both cuts.
  const auto& params = config.ctrl;
  te::TeInput input(net, tm, scenarios, params.tunnels);
  util::Rng rng(5);
  const te::ArrowPrepared prepared = te::prepare_arrow(input, params.arrow, rng);
  const te::TeSolution plan = te::solve_arrow(input, prepared, params.arrow);
  ASSERT_TRUE(plan.optimal);
  const std::vector<topo::FiberId> cuts = {kHeld, kCut};
  const te::RestorabilityCache cache(input, prepared);
  const auto arrow_scheme = schemes::Registry::global().create("ARROW");
  const schemes::CutRepair repair = arrow_scheme->on_cut(
      {input, plan, cuts, /*scenario=*/1, kCut, &prepared, &cache, &rng});
  ASSERT_TRUE(repair.ok);
  EXPECT_TRUE(repair.planned);

  const auto& tickets = prepared.tickets[1].tickets;
  const int winner = plan.winner[1];
  ASSERT_GE(winner, 0);
  ASSERT_LT(winner, static_cast<int>(tickets.size()));
  std::vector<optical::LinkRestoration> links = prepared.rwa[1].links;
  optical::assign_slots_first_fit(
      net, cuts, links,
      tickets[static_cast<std::size_t>(winner)].path_waves);
  double expected_gbps = 0.0;
  std::map<topo::IpLinkId, double> expected_by_link;
  for (const auto& wave : optical::plan_from_restoration(net, links)) {
    EXPECT_EQ(std::count(wave.path.begin(), wave.path.end(), kHeld), 0);
    expected_gbps += wave.gbps;
    expected_by_link[wave.link] += wave.gbps;
  }
  EXPECT_DOUBLE_EQ(repair.restored_gbps, expected_gbps);
  std::map<topo::IpLinkId, double> lit_by_link;
  for (const auto& point : repair.timeline) {
    lit_by_link[point.link] += point.wave_gbps;
  }
  EXPECT_EQ(lit_by_link, expected_by_link);
}

// The daemon's cuts go through the session's cut handler, fault hooks
// included: with drop_restoration_plan set, a planned ARROW cut lights
// nothing, and the tick that follows delivers less than without the hook.
TEST(ServeEngine, DroppedRestorationPlanLightsNothing) {
  const topo::Network net = topo::build_b4();
  const topo::FiberId fiber = overlapping_fibers(net).first;
  double availability[2] = {0.0, 0.0};
  for (int drop = 0; drop < 2; ++drop) {
    serve::EngineConfig config = test_config();
    config.ctrl.explicit_scenarios = {{{fiber}, 0.01}};
    if (drop == 1) config.ctrl.drop_restoration_plan = [] { return true; };
    serve::TickEngine engine(config);
    ASSERT_TRUE(engine.set_topology(net).ok);
    ASSERT_TRUE(engine.tick(test_tm(net, 7)).ok);
    const auto cut = engine.cut(fiber);
    ASSERT_TRUE(cut.ok) << cut.error;
    EXPECT_TRUE(cut.planned);
    ASSERT_TRUE(engine.tick(test_tm(net, 7)).ok);
    const ctrl::ControllerReport report = engine.report();
    EXPECT_EQ(report.cuts_with_plan, 1);
    if (drop == 1) {
      EXPECT_EQ(cut.restored_gbps, 0.0);
      EXPECT_EQ(report.plans_dropped, 1);
      EXPECT_EQ(report.restorations, 0);
    } else {
      EXPECT_GT(cut.restored_gbps, 0.0);
      EXPECT_EQ(report.plans_dropped, 0);
      EXPECT_EQ(report.restorations, 1);
    }
    availability[drop] = report.availability;
    engine.drain();
  }
  EXPECT_LT(availability[1], availability[0]);
}

// PXT's trails are a precomputed plan: a cut of a scenario's fiber switches
// onto them at once, in the daemon as in the sweep's evaluator.
TEST(ServeEngine, PxtCutSwitchesOntoItsTrails) {
  const topo::Network net = topo::build_b4();
  const topo::FiberId fiber = overlapping_fibers(net).first;
  serve::EngineConfig config = test_config();
  config.ctrl.scheme = "PXT";
  config.ctrl.explicit_scenarios = {{{fiber}, 0.01}};
  serve::TickEngine engine(config);
  ASSERT_TRUE(engine.set_topology(net).ok);
  ASSERT_TRUE(engine.tick(test_tm(net, 7)).ok);

  const auto cut = engine.cut(fiber);
  ASSERT_TRUE(cut.ok) << cut.error;
  EXPECT_TRUE(cut.planned);
  EXPECT_GT(cut.restored_gbps, 0.0);
  const schemes::PxtParams pxt;
  EXPECT_DOUBLE_EQ(cut.latency_s, pxt.detection_s + pxt.switchover_s);
  EXPECT_FALSE(cut.local_repair);
  const obs::RunReport report = engine.report();
  EXPECT_EQ(report.cuts_with_plan, 1);
  EXPECT_EQ(report.unplanned_cuts, 0);
  EXPECT_EQ(report.local_repairs, 0);
  engine.drain();
}

// Every session warm-starts its ticks from the previous tick's bases, and
// its cache is installed only inside the session's own calls: with a basis
// directory configured, an unrelated LP solved on the daemon's thread after a
// tick neither starts from the cache nor adds to it.
TEST(ServeEngine, WarmStartCacheIsScopedToTheSessionsCalls) {
  const std::string dir = ::testing::TempDir() + "serve_scoped_basis_dir";
  std::filesystem::create_directories(dir);
  std::filesystem::remove(solver::BasisStore::file_in(dir));
  serve::EngineConfig config = test_config();
  config.ctrl.basis_dir = dir;
  serve::TickEngine engine(config);
  const topo::Network net = test_net();
  ASSERT_TRUE(engine.set_topology(net).ok);
  ASSERT_TRUE(engine.tick(test_tm(net, 7)).ok);
  ASSERT_TRUE(engine.tick(test_tm(net, 8)).ok);
  const obs::RunReport before = engine.report();
  EXPECT_GT(before.warm_start_hits, 0);
  EXPECT_EQ(solver::WarmStartCache::active(), nullptr);

  // Solved twice: inside a live cache the second solve would warm-start.
  for (int pass = 0; pass < 2; ++pass) {
    solver::Model model;
    model.set_maximize();
    const auto x = model.add_var(0.0, 4.0, 1.0);
    const auto y = model.add_var(0.0, 3.0, 2.0);
    model.add_constr(solver::LinExpr(x) + solver::LinExpr(y),
                     solver::Sense::kLe, 5.0);
    const solver::SolveResult res = model.solve();
    ASSERT_TRUE(res.optimal());
    EXPECT_FALSE(res.warm_started) << "pass " << pass;
  }
  const obs::RunReport after = engine.report();
  EXPECT_EQ(after.warm_start_hits, before.warm_start_hits);
  EXPECT_EQ(after.warm_start_stores, before.warm_start_stores);
  engine.drain();
}

// Two engines fed the same tick/cut/repair sequence serve the same plans to
// the bit (each tick's journaled plan) and the same RunReport: the session
// cache starts empty and its solves run in a fixed order.
TEST(ServeEngine, SameRequestSequenceReplaysBitForBit) {
  const topo::Network net = test_net();
  std::vector<std::string> journals;
  std::vector<std::string> reports;
  for (int run = 0; run < 2; ++run) {
    serve::EngineConfig config = test_config();
    config.ctrl.journal_dir =
        temp_dir("arrow_serve_replay_" + std::to_string(run));
    std::filesystem::remove(
        ctrl::StateJournal::file_in(config.ctrl.journal_dir));
    serve::TickEngine engine(config);
    ASSERT_TRUE(engine.set_topology(net).ok);
    std::string journal;
    const auto tick = [&](std::uint64_t tm_seed) {
      ASSERT_TRUE(engine.tick(test_tm(net, tm_seed)).ok);
      const auto bytes = util::read_file(
          ctrl::StateJournal::file_in(config.ctrl.journal_dir));
      ASSERT_TRUE(bytes.has_value());
      journal += *bytes;
    };
    tick(7);
    tick(8);
    ASSERT_TRUE(engine.cut(0).ok);
    tick(9);
    ASSERT_TRUE(engine.repair(0));
    tick(7);
    EXPECT_GT(engine.report().warm_start_hits, 0);
    journals.push_back(journal);
    reports.push_back(engine.report().to_json());
    engine.drain();
  }
  EXPECT_TRUE(journals[0] == journals[1]);
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(ServeEngine, RefusesOutOfOrderRequests) {
  serve::TickEngine engine(test_config());
  EXPECT_FALSE(engine.tick(test_tm(test_net(), 7)).ok);  // no topology
  EXPECT_FALSE(engine.cut(0).ok);

  ASSERT_TRUE(engine.set_topology(test_net()).ok);
  EXPECT_FALSE(engine.cut(0).ok);  // no plan yet: tick first
  EXPECT_FALSE(engine.tick(traffic::TrafficMatrix{}).ok);  // empty matrix
  ASSERT_TRUE(engine.tick(test_tm(test_net(), 7)).ok);
  EXPECT_FALSE(engine.cut(999).ok);  // no such fiber
}

// A demand naming a site the installed network does not have is refused
// before it reaches the TeInput (whose shortest paths index by site), and
// the engine serves the next valid tick as if it had never arrived.
TEST(ServeEngine, RefusesDemandsForSitesOutsideTheNetwork) {
  const topo::Network net = test_net();
  serve::TickEngine engine(test_config());
  ASSERT_TRUE(engine.set_topology(net).ok);
  for (const auto& [src, dst] : std::vector<std::pair<int, int>>{
           {0, net.num_sites}, {net.num_sites + 5, 0}, {0, 99}, {-1, 1}}) {
    traffic::TrafficMatrix bad = test_tm(net, 7);
    bad.demands.push_back({src, dst, 1.0});
    const auto res = engine.tick(bad);
    EXPECT_FALSE(res.ok) << src << "->" << dst;
    EXPECT_EQ(res.error, "demand site out of range");
  }
  EXPECT_EQ(engine.ticks(), 0);
  const auto t1 = engine.tick(test_tm(net, 7));
  ASSERT_TRUE(t1.ok) << t1.error;
  EXPECT_EQ(t1.tick, 1);
  traffic::TrafficMatrix bad = test_tm(net, 8);
  bad.demands.front().dst = net.num_sites;
  EXPECT_FALSE(engine.tick(bad).ok);  // the input built, too
  const auto t2 = engine.tick(test_tm(net, 8));
  ASSERT_TRUE(t2.ok) << t2.error;
  EXPECT_EQ(t2.tick, 2);
}

// Replacing the topology starts a fresh run: the report counts only the
// ticks, cuts and deliveries served on the new network. Its one tick
// installed a plan that has not served yet, so nothing was offered.
TEST(ServeEngine, ReplacedTopologyStartsAFreshReport) {
  const topo::Network first = test_net();
  const topo::Network second = topo::build_b4();
  serve::TickEngine engine(test_config());
  ASSERT_TRUE(engine.set_topology(first).ok);
  ASSERT_TRUE(engine.tick(test_tm(first, 7)).ok);
  ASSERT_TRUE(engine.tick(test_tm(first, 8)).ok);
  ASSERT_TRUE(engine.cut(0).ok);
  ASSERT_TRUE(engine.set_topology(second).ok);
  EXPECT_EQ(engine.ticks(), 0);
  EXPECT_EQ(engine.tick_p50_s(), 0.0);
  const auto t1 = engine.tick(test_tm(second, 9));
  ASSERT_TRUE(t1.ok) << t1.error;
  EXPECT_EQ(t1.tick, 1);
  EXPECT_FALSE(t1.rung_regression);
  EXPECT_EQ(engine.report().to_json(), R"({
  "version": 7,
  "run_id": "run",
  "scheme": "ARROW",
  "traffic_matrices": 1,
  "scenarios": 17,
  "te_runs": 1,
  "ladder": {"primary": 1, "relaxed-retry": 0, "ffc-fallback": 0, "carry-forward": 0, "ecmp": 0},
  "degraded_periods": 0,
  "deadline_overruns": 0,
  "solver_timeouts": 0,
  "backoff_retries": 0,
  "canceled": false,
  "journal_recovered": false,
  "journal_prior_in_flight": false,
  "journal_writes": 0,
  "journal_write_errors": 0,
  "simplex_iterations": 805,
  "pricing_candidates": 103987,
  "decomposition_rounds": 0,
  "decomposition_cuts": 0,
  "warm_start_hits": 0,
  "warm_start_stores": 3,
  "basis_seeded": 0,
  "basis_absorbed": 0,
  "basis_evictions": 0,
  "basis_save_errors": 0,
  "cuts_handled": 0,
  "cuts_with_plan": 0,
  "unplanned_cuts": 0,
  "emergency_restorations": 0,
  "rwa_repairs": 0,
  "rwa_scenarios_lost": 0,
  "calibration_degraded": false,
  "local_repairs": 0,
  "local_repair_fallbacks": 0,
  "local_repair_pivots": 0,
  "local_repair_seconds": 0,
  "restorations": 0,
  "restoration_latency_s": {"p50": 0, "p90": 0, "p99": 0, "max": 0},
  "availability": 1
}
)");
}

// --- handle_line (socket-free server dispatch) ------------------------------

class ServeDispatch : public ::testing::Test {
 protected:
  ServeDispatch() : engine_(test_config()), server_(engine_, {}) {}

  obs::JsonValue call(const std::string& line) {
    bool close_conn = false;
    bool stop_server = false;
    const std::string reply = server_.handle_line(line, &close_conn,
                                                  &stop_server);
    obs::JsonValue v;
    std::string err;
    EXPECT_TRUE(obs::json_parse(reply, &v, &err))
        << err << " in reply: " << reply;
    return v;
  }

  serve::TickEngine engine_;
  serve::Server server_;
};

TEST_F(ServeDispatch, FullSessionOverDispatch) {
  EXPECT_TRUE(call("{\"op\": \"hello\"}").find("ok")->boolean);
  EXPECT_FALSE(call("{\"op\": \"wat\"}").find("ok")->boolean);
  EXPECT_FALSE(call("garbage").find("ok")->boolean);

  // Topology via inline text: daemons on remote hosts don't share a
  // filesystem with their clients.
  const std::string topo_path = temp_dir("arrow_serve_dispatch") + "/net.topo";
  topo::save_network_file(test_net(), topo_path);
  const auto text = util::read_file(topo_path);
  ASSERT_TRUE(text.has_value());
  obs::JsonValue req;
  req.type = obs::JsonValue::Type::kObject;
  req.object["op"] = serve::jstr("topology");
  req.object["text"] = serve::jstr(*text);
  const auto topo_reply = call(obs::json_emit(req));
  ASSERT_TRUE(topo_reply.find("ok")->boolean)
      << topo_reply.text("error");
  EXPECT_EQ(topo_reply.find("sites")->number, test_net().num_sites);

  // Tick with inline demands built from the generated matrix.
  obs::JsonValue demands;
  demands.type = obs::JsonValue::Type::kArray;
  for (const auto& d : test_tm(test_net(), 7).demands) {
    obs::JsonValue row;
    row.type = obs::JsonValue::Type::kArray;
    row.array = {serve::jnum(d.src), serve::jnum(d.dst), serve::jnum(d.gbps)};
    demands.array.push_back(std::move(row));
  }
  obs::JsonValue tick_req;
  tick_req.type = obs::JsonValue::Type::kObject;
  tick_req.object["op"] = serve::jstr("tick");
  tick_req.object["demands"] = std::move(demands);
  const auto tick_reply = call(obs::json_emit(tick_req));
  ASSERT_TRUE(tick_reply.find("ok")->boolean) << tick_reply.text("error");
  EXPECT_EQ(tick_reply.find("tick")->number, 1.0);

  const auto cut_reply = call("{\"op\": \"cut\", \"fiber\": 0}");
  ASSERT_TRUE(cut_reply.find("ok")->boolean) << cut_reply.text("error");
  EXPECT_TRUE(call("{\"op\": \"repair\", \"fiber\": 0}").find("ok")->boolean);

  const auto query = call("{\"op\": \"query\"}");
  EXPECT_TRUE(query.find("topology")->boolean);
  EXPECT_EQ(query.find("ticks")->number, 1.0);

  const auto report = call("{\"op\": \"report\"}");
  ASSERT_TRUE(report.find("ok")->boolean);
  EXPECT_EQ(report.find("report")->find("te_runs")->number, 1.0);

  const auto metrics = call("{\"op\": \"metrics\"}");
  ASSERT_TRUE(metrics.find("ok")->boolean);
  EXPECT_NE(metrics.text("metrics").find("arrow_serve_ticks_total"),
            std::string::npos);
}

// Malformed tick, cut and repair requests get an error reply, never a cast
// of an unchecked number, and leave the daemon serving valid ticks.
TEST_F(ServeDispatch, MalformedRequestsAreRefused) {
  const std::string topo_path = temp_dir("arrow_serve_malformed") + "/net.topo";
  topo::save_network_file(test_net(), topo_path);
  ASSERT_TRUE(
      call("{\"op\": \"topology\", \"path\": \"" + topo_path + "\"}")
          .find("ok")
          ->boolean);
  std::string valid = "{\"op\": \"tick\", \"demands\": [";
  for (const auto& d : test_tm(test_net(), 7).demands) {
    if (valid.back() != '[') valid += ", ";
    valid += "[" + std::to_string(d.src) + ", " + std::to_string(d.dst) +
             ", " + obs::format_double(d.gbps) + "]";
  }
  valid += "]}";
  for (const char* bad : {
           R"({"op": "tick", "demands": [[0, 99, 1]]})",
           R"({"op": "tick", "demands": [[0, 1, nan]]})",
           R"({"op": "tick", "demands": [[0, 1.5, 1]]})",
           R"({"op": "tick", "demands": [[0, 4294967297, 1]]})",
           R"({"op": "cut", "fiber": 0.5})",
           R"({"op": "cut", "fiber": 1e300})",
           R"({"op": "cut", "fiber": -4294967296})",
           R"({"op": "cut", "fiber": "0"})",
           R"({"op": "repair", "fiber": 2.5})",
           R"({"op": "repair", "fiber": inf})"}) {
    const auto reply = call(bad);
    ASSERT_NE(reply.find("ok"), nullptr) << bad;
    EXPECT_FALSE(reply.find("ok")->boolean) << bad;
    EXPECT_FALSE(reply.text("error").empty()) << bad;
  }
  const auto tick_reply = call(valid);
  ASSERT_TRUE(tick_reply.find("ok")->boolean) << tick_reply.text("error");
  EXPECT_EQ(tick_reply.find("tick")->number, 1.0);
  EXPECT_TRUE(call("{\"op\": \"cut\", \"fiber\": 0}").find("ok")->boolean);
  EXPECT_FALSE(call("{\"op\": \"cut\", \"fiber\": 0.0000001}")
                   .find("ok")
                   ->boolean);
  EXPECT_TRUE(call(valid).find("ok")->boolean);
}

TEST_F(ServeDispatch, HttpScrapesAndShutdown) {
  bool close_conn = false;
  bool stop_server = false;
  const std::string metrics =
      server_.handle_line("GET /metrics HTTP/1.1", &close_conn, &stop_server);
  EXPECT_TRUE(close_conn);
  EXPECT_FALSE(stop_server);
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(metrics.find("arrow_serve_requests_total"), std::string::npos);

  const std::string report =
      server_.handle_line("GET /report", &close_conn, &stop_server);
  EXPECT_TRUE(close_conn);
  EXPECT_NE(report.find("application/json"), std::string::npos);

  const std::string missing =
      server_.handle_line("GET /nope", &close_conn, &stop_server);
  EXPECT_EQ(missing.rfind("HTTP/1.0 404", 0), 0u);

  server_.handle_line("{\"op\": \"shutdown\"}", &close_conn, &stop_server);
  EXPECT_TRUE(stop_server);
}

// --- socket round trip ------------------------------------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends one NDJSON request and reads one reply line.
std::string round_trip(int fd, const std::string& line) {
  const std::string out = line + "\n";
  if (::send(fd, out.data(), out.size(), 0) !=
      static_cast<ssize_t>(out.size())) {
    return "";
  }
  std::string reply;
  char ch = 0;
  while (::recv(fd, &ch, 1, 0) == 1) {
    if (ch == '\n') break;
    reply.push_back(ch);
  }
  return reply;
}

TEST(ServeSocket, TickCutQueryShutdownOverUnixSocket) {
  const std::string dir = temp_dir("arrow_serve_socket");
  const std::string sock = dir + "/daemon.sock";
  const std::string topo_path = dir + "/net.topo";
  topo::save_network_file(test_net(), topo_path);
  const std::string tm_path = dir + "/traffic.tm";
  topo::save_traffic_file(test_tm(test_net(), 7), tm_path);

  serve::TickEngine engine(test_config());
  serve::ServerConfig sc;
  sc.unix_path = sock;
  serve::Server server(engine, sc);
  ASSERT_TRUE(server.start()) << server.error();
  std::thread loop([&server] { server.run(); });

  const int fd = connect_unix(sock);
  ASSERT_GE(fd, 0);
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(
      round_trip(fd, "{\"op\": \"topology\", \"path\": \"" + topo_path +
                         "\"}"),
      &v));
  ASSERT_TRUE(v.find("ok")->boolean) << v.text("error");

  ASSERT_TRUE(obs::json_parse(
      round_trip(fd, "{\"op\": \"tick\", \"path\": \"" + tm_path + "\"}"),
      &v));
  ASSERT_TRUE(v.find("ok")->boolean) << v.text("error");
  EXPECT_EQ(v.find("tick")->number, 1.0);

  ASSERT_TRUE(obs::json_parse(
      round_trip(fd, "{\"op\": \"cut\", \"fiber\": 0}"), &v));
  ASSERT_TRUE(v.find("ok")->boolean) << v.text("error");

  // A second client sees the same engine state.
  const int fd2 = connect_unix(sock);
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(obs::json_parse(round_trip(fd2, "{\"op\": \"query\"}"), &v));
  EXPECT_EQ(v.find("ticks")->number, 1.0);
  EXPECT_EQ(v.find("active_cuts")->number, 1.0);
  ::close(fd2);

  ASSERT_TRUE(obs::json_parse(round_trip(fd, "{\"op\": \"shutdown\"}"), &v));
  EXPECT_TRUE(v.find("draining")->boolean);
  loop.join();
  ::close(fd);
  EXPECT_TRUE(engine.drained());
  EXPECT_EQ(engine.report().te_runs, 1);
}

// --- SIGTERM drain drill -----------------------------------------------------

volatile std::sig_atomic_t g_child_stop = 0;
void child_stop_handler(int) { g_child_stop = 1; }

// Child role: a real daemon — journal + obs enabled, topology loaded, one
// tick served — listening on dir/daemon.sock until SIGTERM, then draining
// through the normal exit path.
int serve_child(const std::string& dir) {
  serve::EngineConfig config = test_config();
  config.ctrl.journal_dir = dir;
  config.ctrl.obs.enabled = true;
  config.ctrl.obs.dir = dir;
  config.ctrl.obs.run_id = "drill";
  serve::TickEngine engine(config);
  if (!engine.set_topology(test_net()).ok) return 3;
  if (!engine.tick(test_tm(test_net(), 7)).ok) return 3;

  std::signal(SIGTERM, child_stop_handler);
  serve::ServerConfig sc;
  sc.unix_path = dir + "/daemon.sock";
  sc.stop_check = [] { return g_child_stop != 0; };
  serve::Server server(engine, sc);
  if (!server.start()) return 3;
  if (!util::write_file_atomic(dir + "/ready", "ok")) return 3;
  server.run();
  return engine.drained() ? 0 : 4;
}

bool wait_for_file(const std::string& path, double timeout_s) {
  for (double waited = 0.0; waited < timeout_s; waited += 0.01) {
    if (std::filesystem::exists(path)) return true;
    util::sleep_s(0.01);
  }
  return false;
}

TEST(ServeChaos, SigtermDrainsJournalAndFinalRunReport) {
  const std::string dir = temp_dir("arrow_serve_drain");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const int pid = resilience::spawn_self(g_argv0, {{kServeChildEnv, dir}});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for_file(dir + "/ready", 120.0));

  // The daemon is live: prove it serves, then deliver SIGTERM.
  const int fd = connect_unix(dir + "/daemon.sock");
  ASSERT_GE(fd, 0);
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(round_trip(fd, "{\"op\": \"query\"}"), &v));
  EXPECT_EQ(v.find("ticks")->number, 1.0);
  ::close(fd);

  ASSERT_TRUE(resilience::kill_child(pid, /*delay_s=*/0.0, SIGTERM));
  const auto exit = resilience::wait_child(pid);
  EXPECT_FALSE(exit.signaled);  // handled, not killed
  EXPECT_EQ(exit.code, 0);

  // The drain's three artifacts: journal closed cleanly with the plan
  // intact, and the final RunReport written.
  const ctrl::JournalState state =
      ctrl::StateJournal(ctrl::StateJournal::file_in(dir)).load();
  EXPECT_FALSE(state.in_flight);
  EXPECT_TRUE(state.has_plan);
  obs::RunReport report;
  const auto report_text = util::read_file(dir + "/report_drill.json");
  ASSERT_TRUE(report_text.has_value());
  ASSERT_TRUE(obs::RunReport::from_json(*report_text, &report));
  EXPECT_EQ(report.te_runs, 1);
}

// --- restart recovery --------------------------------------------------------

TEST(ServeChaos, RestartedEngineRecoversJournaledPlanIntoCarryForward) {
  const std::string dir = temp_dir("arrow_serve_recover");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  serve::EngineConfig config = test_config();
  config.ctrl.journal_dir = dir;

  // Daemon 1: serves one tick and drains cleanly — its plan stays journaled.
  {
    serve::TickEngine engine(config);
    ASSERT_TRUE(engine.set_topology(test_net()).ok);
    ASSERT_TRUE(engine.tick(test_tm(test_net(), 7)).ok);
    engine.drain();
  }

  // Daemon 2: same journal dir, every LP solve faulted. Its first tick must
  // adopt daemon 1's journaled plan and serve it via carry-forward — not
  // cold ECMP.
  solver::ScopedSolveObserver storm(
      [](const solver::Lp&, solver::LpSolution& solution) {
        solution.status = solver::LpStatus::kNumericalError;
      });
  serve::TickEngine engine(config);
  ASSERT_TRUE(engine.set_topology(test_net()).ok);
  const auto res = engine.tick(test_tm(test_net(), 7));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.journal_recovered);
  EXPECT_EQ(res.rung, ctrl::Rung::kCarryForward);
}

}  // namespace
}  // namespace arrow

int main(int argc, char** argv) {
  if (const char* dir = std::getenv(arrow::kServeChildEnv)) {
    return arrow::serve_child(dir);
  }
  arrow::g_argv0 = argv[0];
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

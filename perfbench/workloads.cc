// The three benchmark workloads. Each is a single caller running a closed
// loop (the next operation starts when the previous one returns) against
// the built libraries, timed from outside through their public functions.
//
//   ibm-te-period  cold te::solve_arrow periods on IBM (|Z|=20): the solver
//                  layer, almost all of it one large Phase I LP.
//   b4-serve       a serve::TickEngine on B4: per-tick ladder re-solves plus
//                  cuts answered from the precomputed plan.
//   fbsynth-sweep  sim::run_sweep on FBsynth over every registered scheme:
//                  many small warm-chained LPs fanned out on the pool.
//
// perfbench/METRICS.md lists which layer each workload loads and bypasses,
// and which end-to-end metric each per-layer metric should move.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "bench.h"
#include "controller/controller.h"
#include "obs/report.h"
#include "optical/rwa.h"
#include "schemes/scheme.h"
#include "serve/engine.h"
#include "sim/availability.h"
#include "sim/sweep.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "ticket/ticket.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

using namespace arrow;

namespace {

// A workload's topology, failure model (hence its scenario set and LP
// shapes), diurnal traffic family and offline plan (LotteryTicket rounding)
// are fixed by its definition; the run seed draws lognormal noise on every
// demand. Drawing new gravity matrices, scenario sets or ticket roundings per
// seed moves the Phase I LP's pivot count by 10% to 2x from seed to seed and
// would bury every timing in input noise.
constexpr double kDemandNoiseSigma = 0.05;
constexpr std::uint64_t kOfflineSeed = 0x9e3779b97f4a7c15ULL;

// `copies` noisy draws of each of the workload's `matrices` matrices from
// `family`: every demand scaled by lognormal noise from the run seed.
std::vector<traffic::TrafficMatrix> workload_traffic(const topo::Network& net,
                                                     int matrices, int copies,
                                                     util::Rng& family,
                                                     std::uint64_t seed,
                                                     Tracer& tr) {
  Span span(tr, "traffic.generate");
  traffic::TrafficParams tp;
  tp.num_matrices = matrices;
  const auto base = traffic::generate_traffic(net, tp, family);
  util::Rng noise(seed);
  std::vector<traffic::TrafficMatrix> out;
  for (int c = 0; c < copies; ++c) {
    for (traffic::TrafficMatrix tm : base) {
      for (auto& d : tm.demands) {
        d.gbps *= noise.lognormal(0.0, kDemandNoiseSigma);
      }
      out.push_back(std::move(tm));
    }
  }
  return out;
}

std::vector<scenario::Scenario> workload_scenarios(const topo::Network& net,
                                                   double cutoff,
                                                   util::Rng& family,
                                                   Tracer& tr) {
  Span span(tr, "scenario.generate");
  scenario::ScenarioParams sp;
  sp.probability_cutoff = cutoff;
  return scenario::remove_disconnecting(
      net, scenario::generate_scenarios(net, sp, family).scenarios);
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// Everything a TE period needs before it can run: inputs, tunnels, the first
// matrix's calibration, the offline stage (RWA + LotteryTickets) and the
// restorability cache. The same steps, in the same order, as the preamble of
// sim::run_sweep for its first matrix.
struct TeSetup {
  std::unique_ptr<topo::Network> net;
  std::vector<scenario::Scenario> scenarios;
  std::vector<traffic::TrafficMatrix> matrices;  // as generated
  // Holds matrices[0] at `load` x its max-satisfiable scale.
  std::unique_ptr<te::TeInput> input;
  te::ArrowPrepared prepared;
  std::unique_ptr<te::RestorabilityCache> cache;
};

struct TeSetupParams {
  std::function<topo::Network()> build;
  std::uint64_t family_seed = 0;  // traffic family (+ failure model)
  // Nonzero: the failure model comes first from its own rng instead.
  std::uint64_t failure_seed = 0;
  double cutoff = 0.001;
  int matrices = 1;  // distinct matrices of the traffic family
  int copies = 1;    // noisy draws of each
  double load = 1.0;  // demand as a multiple of max-satisfiable
  te::TunnelParams tunnels;
  te::ArrowParams arrow;
};

TeSetup te_setup(const TeSetupParams& p, std::uint64_t seed,
                 util::Rng& prepare_rng, util::ThreadPool& pool, Tracer& tr) {
  TeSetup s;
  {
    Span span(tr, "topo.build");
    s.net = std::make_unique<topo::Network>(p.build());
  }
  // Traffic first, then failures, from one rng, as the fig13 and fig15
  // benches draw them (ibm-te-period gets fig15's IBM scenario set).
  util::Rng family(p.family_seed);
  util::Rng failures(p.failure_seed);
  s.matrices =
      workload_traffic(*s.net, p.matrices, p.copies, family, seed, tr);
  s.scenarios = workload_scenarios(*s.net, p.cutoff,
                                   p.failure_seed != 0 ? failures : family, tr);
  {
    Span span(tr, "te.input");
    s.input = std::make_unique<te::TeInput>(*s.net, s.matrices[0], s.scenarios,
                                            p.tunnels);
  }
  {
    Span span(tr, "te.calibrate");
    s.input->scale_demands(te::max_satisfiable_scale(*s.input) * p.load);
  }
  {
    Span span(tr, "te.prepare");
    s.prepared = te::prepare_arrow(*s.input, p.arrow, prepare_rng, pool);
  }
  {
    Span span(tr, "te.cache");
    s.cache = std::make_unique<te::RestorabilityCache>(*s.input, s.prepared,
                                                       pool);
  }
  return s;
}

// Median over the traced set-ups of each input-stage span.
void report_setup_spans(const Tracer& tr, Report& rep) {
  const auto st = tr.stats();
  auto ms = [&](const char* name) {
    const auto it = st.find(name);
    return it == st.end() ? 0.0 : median(it->second.durations) * 1e3;
  };
  rep.set("te.input_ms", ms("te.input"));
  rep.set("te.prepare_ms", ms("te.prepare"));
  rep.set("te.cache_ms", ms("te.cache"));
}

// The offline stage layer by layer, on the calling thread: prepare_arrow runs
// one RWA LP and one ticket rounding per scenario fanned out on the pool,
// where neither can be timed from outside; this replays the pair serially.
void probe_offline(const topo::Network& net,
                   const std::vector<scenario::Scenario>& scenarios,
                   const te::ArrowParams& params, Tracer& tr, Report& rep) {
  tr.begin_op();
  Span root(tr, "offline_probe");
  util::Rng rng(kOfflineSeed);
  std::vector<double> rwa_s;
  long long pivots = 0;
  long long tickets = 0;
  for (const auto& q : scenarios) {
    optical::RwaResult rwa;
    {
      Span span(tr, "optical.solve_rwa");
      rwa = optical::solve_rwa(net, q.cuts, params.rwa);
      rwa_s.push_back(span.elapsed());
    }
    pivots += rwa.simplex_iterations;
    Span span(tr, "ticket.generate_tickets");
    tickets += static_cast<long long>(
        ticket::generate_tickets(net, q.cuts, rwa, params.tickets, rng)
            .tickets.size());
  }
  rep.set("optical.rwa_scenario_ms", median(rwa_s) * 1e3);
  rep.set("optical.rwa_pivots", static_cast<double>(pivots));
  rep.set("ticket.count", static_cast<double>(tickets));
}

// Output checks on one TE plan: solved to optimality, no flow admitted
// beyond its demand, and the healthy-state link loads within capacity.
bool plan_ok(const te::TeInput& input, const te::TeSolution& sol,
             std::string* why) {
  if (!sol.optimal) {
    *why = "non-optimal TE solve";
    return false;
  }
  for (int f = 0; f < input.num_flows(); ++f) {
    const double demand =
        input.flows()[static_cast<std::size_t>(f)].demand_gbps;
    const double admitted = sol.admitted[static_cast<std::size_t>(f)];
    if (admitted > demand + 1e-6 * std::max(1.0, demand)) {
      *why = "flow " + std::to_string(f) + " admitted " +
             fmt("%.9g", admitted) + " > demand " + fmt("%.9g", demand);
      return false;
    }
  }
  const auto& links = input.net().ip_links;
  for (std::size_t e = 0; e < links.size(); ++e) {
    double load = 0.0;
    const auto link = static_cast<topo::IpLinkId>(e);
    for (const auto& lt : input.tunnels_on_link(link)) {
      load += sol.alloc[static_cast<std::size_t>(lt.flow)]
                       [static_cast<std::size_t>(lt.ti)];
    }
    const double cap = links[e].capacity_gbps();
    if (load > cap + 1e-6 * std::max(1.0, cap)) {
      *why = "link " + std::to_string(e) + " load " + fmt("%.9g", load) +
             " > capacity " + fmt("%.9g", cap);
      return false;
    }
  }
  return true;
}

double delivered_share(const te::TeInput& input, const te::TeSolution& sol) {
  const double demand = input.total_demand();
  return demand > 0.0 ? sol.total_admitted() / demand : 1.0;
}

// LPs captured during one ARROW solve on the calling thread: the first is
// Phase I, the last Phase II (exactly two when neither retried).
struct ArrowLps {
  std::vector<double> p1_ms, p2_ms, p1_pivots, p2_pivots, p1_rows, p1_nnz;
  void add(const std::vector<LpRecord>& lps, std::size_t begin,
           std::size_t end) {
    if (end - begin != 2) return;
    const LpRecord& p1 = lps[begin];
    const LpRecord& p2 = lps[begin + 1];
    p1_ms.push_back(p1.simplex_s * 1e3);
    p2_ms.push_back(p2.simplex_s * 1e3);
    p1_pivots.push_back(p1.iterations);
    p2_pivots.push_back(p2.iterations);
    p1_rows.push_back(p1.rows);
    p1_nnz.push_back(p1.nnz);
  }
  void report(Report& rep) const {
    rep.set("te.phase1_solve_ms", median(p1_ms));
    rep.set("te.phase2_solve_ms", median(p2_ms));
    rep.set("te.phase1_pivots", median(p1_pivots));
    rep.set("te.phase2_pivots", median(p2_pivots));
    rep.set("te.phase1_rows", median(p1_rows));
    rep.set("te.phase1_nnz", median(p1_nnz));
  }
};

// Model assembly alone (te::build_phase{1,2}_model build without solving),
// median of three builds each.
void probe_builds(const te::TeInput& input, const te::ArrowPrepared& prepared,
                  const std::vector<int>& winners,
                  const te::ArrowParams& params, util::ThreadPool& pool,
                  const te::RestorabilityCache* cache, Tracer& tr,
                  Report& rep) {
  tr.begin_op();
  Span root(tr, "build_probe");
  std::vector<double> p1_ms, p2_ms;
  for (int k = 0; k < 3; ++k) {
    {
      Span span(tr, "te.build_phase1_model");
      te::build_phase1_model(input, prepared, params, pool, cache);
      p1_ms.push_back(span.elapsed() * 1e3);
    }
    Span span(tr, "te.build_phase2_model");
    te::build_phase2_model(input, prepared, winners, params, pool, cache);
    p2_ms.push_back(span.elapsed() * 1e3);
  }
  rep.set("te.phase1_build_ms", median(p1_ms));
  rep.set("te.phase2_build_ms", median(p2_ms));
}

// op_p50_ms and ops_per_s, where one operation completes `work` units
// (sweep cells per pass; 1 elsewhere), plus the tail figures.
void report_ops(Report& rep, const std::vector<double>& op_s, double loop_s,
                const char* what, double work = 1.0) {
  rep.set("op_p50_ms", median(op_s) * 1e3);
  rep.set("ops_per_s", static_cast<double>(op_s.size()) * work / loop_s);
  const double tail = tail_percentile(op_s.size());
  rep.note(std::string(what) + "_count", static_cast<double>(op_s.size()),
           "count", "timed operations in the run");
  rep.note(std::string(what) + "_p50_ms", median(op_s) * 1e3, "ms");
  if (tail > 50.0) {
    rep.note(std::string(what) + "_p" + fmt("%.0f", tail) + "_ms",
             percentile(op_s, tail) * 1e3, "ms",
             "highest percentile with >= 10 samples beyond it");
  } else if (tail == 0.0) {
    rep.note(std::string(what) + "_max_ms",
             *std::max_element(op_s.begin(), op_s.end()) * 1e3, "ms",
             "fewer than 20 samples: no percentile with 10 beyond it");
  }
}

}  // namespace

// ---- ibm-te-period ---------------------------------------------------------

void run_ibm_te_period(const Options& opt, Report& rep, Tracer& tr) {
  TeSetupParams p;
  p.build = [] { return topo::build_ibm(); };
  p.family_seed = 99;  // bench_fig15_runtime's
  p.cutoff = opt.smoke ? 0.004 : 0.001;
  // One matrix of the family; every period sees its own noisy draw of it,
  // so a run's median is over like periods however many fit in the run.
  p.matrices = 1;
  p.copies = 16;
  p.load = 0.6;
  p.tunnels.tunnels_per_flow = opt.smoke ? 4 : 8;
  p.arrow.tickets.num_tickets = opt.smoke ? 2 : 20;
  const int setups = opt.smoke ? 2 : 5;
  util::ThreadPool pool(opt.threads);

  TeSetup s;
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    tr.begin_op();
    Span root(tr, "setup");
    util::Rng prepare_rng(kOfflineSeed);
    s = te_setup(p, opt.seed, prepare_rng, pool, tr);
    setup_s.push_back(root.elapsed());
  }
  te::TeInput& input = *s.input;
  const std::size_t K = s.matrices.size();
  // Input preparation, outside the timed period: the controller calibrates
  // each matrix before its period too.
  auto load_matrix = [&](std::size_t i) {
    input.set_demands(s.matrices[i % K]);
    input.scale_demands(te::max_satisfiable_scale(input) * p.load);
  };
  auto check = [&](const te::TeSolution& sol, std::size_t i) {
    std::string why;
    const bool ok = plan_ok(input, sol, &why);
    rep.op(ok, "TE period " + std::to_string(i) + ": " + why);
    if (i == 0 && opt.ref_objective) {
      const double ref = *opt.ref_objective;
      const double tol = 1e-6 * std::max(1.0, std::abs(ref));
      rep.op(std::abs(sol.objective - ref) <= tol,
             "TE period 0 objective " + fmt("%.10g", sol.objective) +
                 " != reference " + fmt("%.10g", ref));
    }
  };

  if (!opt.trace) {
    std::vector<double> period_s, pivots;
    double delivered = 0.0;
    const double t_start = now_s();
    for (std::size_t i = 0; i == 0 || now_s() - t_start < opt.seconds; ++i) {
      load_matrix(i);
      const double t0 = now_s();
      const te::TeSolution sol =
          te::solve_arrow(input, s.prepared, p.arrow, pool, s.cache.get());
      period_s.push_back(now_s() - t0);
      pivots.push_back(sol.simplex_iterations);
      check(sol, i);
      delivered += delivered_share(input, sol);
      if (i == 0) {
        rep.note("te_period0_objective", sol.objective, "Gbps",
                 "reference check: perfbench/reference.json");
      }
    }
    const double loop_s = now_s() - t_start;
    rep.set("setup_s", median(setup_s));
    report_ops(rep, period_s, loop_s, "te_period");
    rep.set("delivered_frac", delivered / static_cast<double>(period_s.size()));
    const double period = median(period_s);
    rep.note("te_period_s", period, "s", "median cold solve_arrow period");
    rep.note("te_period_budget_frac", period / 300.0, "fraction",
             "of the 300 s TE interval");
    rep.note("te_period_pivots", median(pivots), "count",
             std::to_string(s.scenarios.size()) + " scenarios, " +
                 std::to_string(input.num_flows()) + " flows, " +
                 std::to_string(input.total_tunnels()) + " tunnels");
    return;
  }

  // Traced: the offline stage by layer, one untraced reference period, then
  // traced periods as Phase I + Phase II calls (what solve_arrow runs) with
  // each model's assembly timed separately afterwards.
  report_setup_spans(tr, rep);
  probe_offline(*s.net, s.scenarios, p.arrow, tr, rep);
  const double t_start = now_s();
  load_matrix(0);
  const double t0 = now_s();
  const te::TeSolution reference =
      te::solve_arrow(input, s.prepared, p.arrow, pool, s.cache.get());
  const double untraced_s = now_s() - t0;
  check(reference, 0);

  LpCapture capture(tr);
  ArrowLps phases;
  std::vector<double> traced_s;
  std::vector<int> winners(s.scenarios.size(), -1);
  for (std::size_t i = 0; i == 0 || now_s() - t_start < opt.seconds; ++i) {
    load_matrix(i);
    const std::size_t lp_begin = capture.lps().size();
    tr.begin_op();
    te::Phase1Result p1;
    te::TeSolution sol;
    {
      Span period(tr, "period");
      {
        Span span(tr, "te.solve_phase1");
        p1 = te::solve_phase1(input, s.prepared, p.arrow, pool, s.cache.get());
      }
      if (p1.optimal) {
        Span span(tr, "te.solve_arrow_with_winners");
        sol = te::solve_arrow_with_winners(input, s.prepared, p1.winners, pool,
                                           s.cache.get());
      }
      traced_s.push_back(period.elapsed());
    }
    phases.add(capture.lps(), lp_begin, capture.lps().size());
    std::string why = "Phase I not optimal";
    rep.op(p1.optimal && plan_ok(input, sol, &why),
           "traced TE period " + std::to_string(i) + ": " + why);
    if (i == 0) {
      rep.op(std::abs(sol.objective - reference.objective) <=
                 1e-6 * std::max(1.0, std::abs(reference.objective)),
             "traced period objective differs from solve_arrow's");
    }
    if (i == 0 && p1.optimal) winners = p1.winners;
  }
  phases.report(rep);
  report_solver_layer(capture, rep);
  load_matrix(0);
  probe_builds(input, s.prepared, winners, p.arrow, pool, s.cache.get(), tr,
               rep);
  rep.set("trace.coverage", tr.coverage("period"));
  rep.set("trace.overhead_ms", (traced_s.front() - untraced_s) * 1e3);
  rep.note("te_period_s", traced_s.front(), "s",
           "traced; untraced reference " + fmt("%.4f", untraced_s) + " s");
  const double p1_share = median(phases.p1_ms) / (median(traced_s) * 1e3);
  rep.note("te.phase1_solve_share", p1_share, "fraction",
           "Phase I LP simplex time over the traced period");
}

// ---- b4-serve --------------------------------------------------------------

void run_b4_serve(const Options& opt, Report& rep, Tracer& tr) {
  TeSetupParams p;
  p.build = [] { return topo::build_b4(); };
  p.family_seed = 7;
  // The failure model the daemon samples by default (EngineConfig's seed),
  // passed explicitly so the cuts below can target planned scenarios.
  p.failure_seed = serve::EngineConfig{}.seed;
  p.cutoff = opt.smoke ? 0.004 : 0.001;
  // Every tick of a run sees its own noisy matrix, so a tick median is
  // taken over dozens of distinct LPs rather than four.
  p.matrices = 4;
  p.copies = 16;
  p.tunnels.tunnels_per_flow = opt.smoke ? 4 : 8;
  p.arrow.tickets.num_tickets = opt.smoke ? 2 : 8;
  serve::EngineConfig config;
  // Wide enough that every tick lands on the primary rung: the run measures
  // the serving path, not the fallbacks.
  config.ctrl.te_budget_s = 60.0;
  config.ctrl.tunnels = p.tunnels;
  config.ctrl.arrow = p.arrow;
  config.seed = kOfflineSeed;  // ticket rounding, restoration replay
  p.load = config.ctrl.demand_scale;
  const int setups = opt.smoke ? 2 : 5;
  // A cut follows every kCutEvery-th tick; the next tick runs with it
  // active and the repair follows that tick.
  constexpr int kCutEvery = 4;

  const topo::Network net = p.build();
  util::Rng family(p.family_seed);
  const std::vector<traffic::TrafficMatrix> matrices =
      workload_traffic(net, p.matrices, p.copies, family, opt.seed, tr);
  util::Rng failures(p.failure_seed);
  config.ctrl.explicit_scenarios =
      workload_scenarios(net, p.cutoff, failures, tr);
  // Cuts go to fibers with a precomputed single-cut plan, in an order
  // rotated by the seed.
  std::vector<topo::FiberId> cut_fibers;
  for (const auto& q : config.ctrl.explicit_scenarios) {
    if (q.cuts.size() == 1) cut_fibers.push_back(q.cuts[0]);
  }
  if (cut_fibers.empty()) throw std::runtime_error("no single-cut scenario");
  std::rotate(cut_fibers.begin(),
              cut_fibers.begin() +
                  static_cast<std::ptrdiff_t>(opt.seed % cut_fibers.size()),
              cut_fibers.end());

  std::unique_ptr<serve::TickEngine> engine;
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    engine.reset();
    tr.begin_op();
    Span root(tr, "setup");
    engine = std::make_unique<serve::TickEngine>(config);
    {
      Span span(tr, "serve.set_topology");
      rep.op(engine->set_topology(net).ok, "set_topology");
    }
    // Each set-up's first tick solves its own matrix: the median is then
    // over several first-tick LPs, not one.
    Span span(tr, "serve.tick");
    const auto first = engine->tick(matrices[static_cast<std::size_t>(k)]);
    rep.op(first.ok && first.rung == ctrl::Rung::kPrimary,
           "first tick: " + first.error);
    setup_s.push_back(root.elapsed());
  }

  std::vector<double> tick_s, cut_s, untraced_tick_s;
  int cuts = 0;
  std::optional<LpCapture> capture;
  ArrowLps phases;
  // Traced: the first ticks run untraced as the overhead reference.
  const int untraced_ticks = opt.trace ? 2 * kCutEvery : 0;
  const int min_ticks = untraced_ticks + 2 * kCutEvery;
  const double t_start = now_s();
  for (int i = 1; i <= min_ticks || now_s() - t_start < opt.seconds; ++i) {
    const bool traced = opt.trace && i > untraced_ticks;
    if (traced && !capture) capture.emplace(tr);
    const std::size_t lp_begin = capture ? capture->lps().size() : 0;
    double t0 = now_s();
    serve::TickEngine::TickResult res;
    {
      tr.begin_op();
      std::optional<Span> span;
      if (traced) span.emplace(tr, "serve.tick");
      res = engine->tick(
          matrices[static_cast<std::size_t>(i) % matrices.size()]);
    }
    const double dt = now_s() - t0;
    (traced || !opt.trace ? tick_s : untraced_tick_s).push_back(dt);
    if (capture) phases.add(capture->lps(), lp_begin, capture->lps().size());
    rep.op(res.ok && res.rung == ctrl::Rung::kPrimary && !res.deadline_overrun,
           "tick " + std::to_string(i) + " (rung " + ctrl::to_string(res.rung) +
               ", overrun " + std::to_string(res.deadline_overrun) + ") " +
               res.error);

    const topo::FiberId fiber =
        cut_fibers[static_cast<std::size_t>(i / kCutEvery) % cut_fibers.size()];
    if (i % kCutEvery == 0) {
      tr.begin_op();
      Span span(tr, "serve.cut");
      t0 = now_s();
      const auto cut = engine->cut(fiber);
      cut_s.push_back(now_s() - t0);
      ++cuts;
      rep.op(cut.ok,
             "cut of fiber " + std::to_string(fiber) + ": " + cut.error);
    } else if (i % kCutEvery == 1 && i > kCutEvery) {
      tr.begin_op();
      Span span(tr, "serve.repair");
      rep.op(engine->repair(cut_fibers[static_cast<std::size_t>(
                 (i - 1) / kCutEvery) % cut_fibers.size()]),
             "repair of fiber");
    }
  }
  const double loop_s = now_s() - t_start;

  // Run-level accounting: every tick served and attributed to one rung.
  const obs::RunReport rr = engine->report();
  rep.op(rr.te_runs == engine->ticks(),
         "te_runs " + std::to_string(rr.te_runs) + " != ticks " +
             std::to_string(engine->ticks()));
  long long rung_total = 0;
  for (const auto& [rung, count] : rr.ladder) rung_total += count;
  rep.op(rung_total == engine->ticks(), "rung counts do not sum to ticks");
  rep.op(rr.cuts_handled == cuts, "cuts handled != cuts sent");

  if (!opt.trace) {
    rep.set("setup_s", median(setup_s));
    report_ops(rep, tick_s, loop_s, "tick");
    rep.set("delivered_frac", rr.availability);
    if (tail_percentile(tick_s.size()) < 90.0) {
      rep.note("tick_p90_ms", percentile(tick_s, 90) * 1e3, "ms",
               "only " + fmt("%.0f", std::floor(0.1 * static_cast<double>(
                                          tick_s.size()))) +
                   " samples beyond it");
    }
    rep.note("cut_p50_ms", median(cut_s) * 1e3, "ms",
             std::to_string(cut_s.size()) + " cuts");
    rep.note("serve.warm_start_hits", rr.warm_start_hits, "count",
             "base: " + std::to_string(engine->ticks() - 1) +
                 " ticks after the first");
    return;
  }

  report_solver_layer(*capture, rep);
  capture.reset();
  phases.report(rep);
  rep.set("serve.warm_start_hits", rr.warm_start_hits);
  rep.note("serve.warm_start_hits", rr.warm_start_hits, "count",
           "base: " + std::to_string(engine->ticks() - 1) +
               " ticks after the first");
  rep.set("serve.cut_planned_frac",
          rr.cuts_handled > 0 ? static_cast<double>(rr.cuts_with_plan) /
                                    rr.cuts_handled
                              : 0.0);
  rep.set("serve.cut_p50_ms", median(cut_s) * 1e3);
  for (const auto& [rung, count] : rr.ladder) {
    rep.set("controller.rung." + rung, count);
  }
  rep.set("trace.coverage", tr.coverage("serve.tick"));
  rep.set("trace.overhead_ms",
          (median(tick_s) - median(untraced_tick_s)) * 1e3);
  rep.note("tick_p50_ms", median(tick_s) * 1e3, "ms",
           "traced (engine runs its inline pool under the observer); "
           "untraced " + fmt("%.3f", median(untraced_tick_s) * 1e3) + " ms");

  // The engine's offline stage and models are private, so those layers are
  // timed on the same inputs built from outside (Phase II against the
  // naive plan: the same rows as any winner set).
  util::ThreadPool pool(opt.threads);
  TeSetup s;
  for (int k = 0; k < setups; ++k) {
    tr.begin_op();
    Span root(tr, "offline_setup");
    util::Rng prepare_rng(config.seed);
    s = te_setup(p, opt.seed, prepare_rng, pool, tr);
  }
  report_setup_spans(tr, rep);
  probe_builds(*s.input, s.prepared,
               std::vector<int>(s.scenarios.size(), -1), p.arrow, pool,
               s.cache.get(), tr, rep);
  probe_offline(net, config.ctrl.explicit_scenarios, p.arrow, tr, rep);
}

// ---- fbsynth-sweep ---------------------------------------------------------

void run_fbsynth_sweep(const Options& opt, Report& rep, Tracer& tr) {
  TeSetupParams p;
  p.build = [] { return topo::build_fbsynth(); };
  p.family_seed = 2021;  // bench_fig13_availability's
  p.cutoff = opt.smoke ? 0.004 : 0.001;
  p.matrices = 1;
  p.load = 1.0;  // run_sweep calibrates scale 1.0 to max-satisfiable
  p.tunnels.tunnels_per_flow = opt.smoke ? 4 : 6;
  p.arrow.tickets.num_tickets = opt.smoke ? 2 : 6;
  const int setups = opt.smoke ? 2 : 5;

  sim::SweepParams params;
  params.scales = opt.smoke ? std::vector<double>{0.3, 0.6}
                            : std::vector<double>{0.6, 0.9, 1.2};
  params.schemes = schemes::Registry::global().names();
  params.tunnels = p.tunnels;
  params.arrow = p.arrow;
  params.ffc2_max_double_scenarios = 60;
  util::ThreadPool pool(opt.threads);
  const std::uint64_t sweep_seed = kOfflineSeed;

  // Set-up: the sweep's own preamble for its matrix, measured from outside.
  TeSetup s;
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    tr.begin_op();
    Span root(tr, "setup");
    util::Rng prepare_rng(sweep_seed);
    s = te_setup(p, opt.seed, prepare_rng, pool, tr);
    setup_s.push_back(root.elapsed());
  }
  if (opt.trace) report_setup_spans(tr, rep);
  const std::vector<traffic::TrafficMatrix> matrices = s.matrices;
  const std::size_t cells_per_pass =
      matrices.size() * params.schemes.size() * params.scales.size();

  auto check = [&](const sim::SweepResult& res, const sim::SweepResult* first) {
    rep.ops(static_cast<long long>(cells_per_pass), res.total_solve_failures(),
            "non-optimal sweep cell");
    const auto& arrow = res.availability.at("ARROW");
    const auto& naive = res.availability.at("ARROW-Naive");
    for (std::size_t i = 0; i < res.scales.size(); ++i) {
      rep.op(arrow[i] >= naive[i] - 1e-12,
             "ARROW availability " + fmt("%.9f", arrow[i]) +
                 " < ARROW-Naive " + fmt("%.9f", naive[i]) + " at scale " +
                 fmt("%.2f", res.scales[i]));
    }
    if (first != nullptr) {
      rep.op(res.availability == first->availability &&
                 res.simplex_iterations == first->simplex_iterations,
             "sweep pass differs from the first pass on the same inputs");
    }
  };

  std::vector<double> pass_s;
  std::optional<sim::SweepResult> first;
  const double t_start = now_s();
  // Traced runs make one pass: the replay below is their single-thread part.
  for (int i = 0; i == 0 || (!opt.trace && now_s() - t_start < opt.seconds);
       ++i) {
    util::Rng rng(sweep_seed);
    const double t0 = now_s();
    sim::SweepResult res;
    {
      tr.begin_op();
      Span span(tr, "sim.run_sweep");
      res = sim::run_sweep(*s.net, matrices, s.scenarios, params, rng, pool);
    }
    pass_s.push_back(now_s() - t0);
    check(res, first ? &*first : nullptr);
    if (!first) first = std::move(res);
  }
  const double loop_s = now_s() - t_start;
  const sim::SweepResult& res = *first;
  const auto& arrow_avail = res.availability.at("ARROW");
  const double arrow_max = res.max_scale_at("ARROW", 0.999);

  if (!opt.trace) {
    rep.set("setup_s", median(setup_s));
    // A cell is one (matrix, scheme, scale) solve + evaluation.
    report_ops(rep, pass_s, loop_s, "sweep_pass",
               static_cast<double>(cells_per_pass));
    rep.set("delivered_frac",
            sum(arrow_avail) / static_cast<double>(arrow_avail.size()));
    rep.note("sweep_cells_per_s", rep.values().at("ops_per_s"), "1/s",
             std::to_string(cells_per_pass) + " cells per pass");
    rep.note("arrow_max_scale", arrow_max, "x", "max_scale_at(ARROW, 0.999)");
    for (const auto& [scheme, avail] : res.availability) {
      std::string curve;
      for (std::size_t i = 0; i < avail.size(); ++i) {
        curve += fmt(i == 0 ? "%.6f" : " %.6f", avail[i]);
      }
      rep.note("availability." + scheme, sum(avail) / avail.size(),
               "fraction", "mean; by scale: " + curve);
    }
    return;
  }

  // Traced: sim.pivots.* and the repair counters come from the parallel
  // pass's SweepResult telemetry; the single-thread baseline replays the
  // same chains on this thread under the observer, timed per scheme, and
  // must reproduce the pass's pivot counts.
  for (const auto& [scheme, pivots] : res.simplex_iterations) {
    rep.set("sim.pivots." + scheme, static_cast<double>(pivots));
  }
  long long repair_cuts = 0, repair_local = 0, repair_pivots = 0;
  for (const auto& [scheme, n] : res.repair_cuts) repair_cuts += n;
  for (const auto& [scheme, n] : res.repair_local) repair_local += n;
  for (const auto& [scheme, n] : res.repair_simplex_iterations) {
    repair_pivots += n;
  }
  rep.set("schemes.repair_local_frac",
          repair_cuts > 0
              ? static_cast<double>(repair_local) / repair_cuts
              : 0.0);
  rep.set("schemes.repair_pivots", static_cast<double>(repair_pivots));
  rep.note("schemes.repair_cuts", static_cast<double>(repair_cuts), "count",
           "base of schemes.repair_local_frac");

  schemes::SchemeOptions options;
  options.arrow = params.arrow;
  options.teavar = params.teavar;
  options.ffc2_max_double_scenarios = params.ffc2_max_double_scenarios;
  options.reweave = params.reweave;
  options.pxt = params.pxt;
  const auto& registry = schemes::Registry::global();

  std::optional<LpCapture> capture(std::in_place, tr);
  ArrowLps phases;
  const double t1 = now_s();
  util::ThreadPool inline_pool(1);
  util::Rng rng(sweep_seed);
  tr.begin_op();
  TeSetup replay;
  {
    Span root(tr, "replay_setup");
    replay = te_setup(p, opt.seed, rng, inline_pool, tr);
  }
  std::map<std::string, double> scheme_s;
  std::optional<te::TeInput> arrow_input;  // ARROW's last scale, for the probe
  std::vector<int> arrow_winners;
  for (const auto& name : params.schemes) {
    tr.begin_op();
    Span chain(tr, "sim.chain");
    const auto scheme = registry.create(name, options);
    const bool repair_aware = scheme->capabilities().supports_local_repair;
    te::TeInput input = *replay.input;
    solver::ScopedWarmStartCache warm;
    long long pivots = 0;
    double prev = 1.0;
    for (double scale : params.scales) {
      input.scale_demands(scale / prev);
      prev = scale;
      const std::size_t lp_begin = capture->lps().size();
      te::TeSolution sol;
      {
        Span span(tr, "schemes.solve");
        sol = scheme->solve(input, replay.prepared, inline_pool,
                            replay.cache.get());
      }
      if (name == "ARROW") {
        phases.add(capture->lps(), lp_begin, capture->lps().size());
        arrow_input = input;
        arrow_winners = sol.winner;
      }
      pivots += sol.simplex_iterations;
      rep.op(sol.optimal,
             "replayed " + name + " solve at scale " + fmt("%.2f", scale));
      if (!sol.optimal) continue;
      Span span(tr, "sim.evaluate");
      sim::RepairStats repairs;
      if (repair_aware) {
        sim::evaluate_with_repairs(input, sol, *scheme, &repairs);
      } else {
        sim::evaluate(input, sol);
      }
    }
    scheme_s[name] = chain.elapsed();
    rep.op(pivots == res.simplex_iterations.at(name),
           "replayed " + name + " chain took " + std::to_string(pivots) +
               " pivots, the sweep " +
               std::to_string(res.simplex_iterations.at(name)));
  }
  const double one_thread_s = now_s() - t1;
  phases.report(rep);
  report_solver_layer(*capture, rep);
  capture.reset();
  if (arrow_input) {
    probe_builds(*arrow_input, replay.prepared, arrow_winners, p.arrow,
                 inline_pool, replay.cache.get(), tr, rep);
  }
  for (const auto& [name, sec] : scheme_s) rep.set("sim.scheme_s." + name, sec);
  rep.set("sim.sweep_1thread_s", one_thread_s);
  rep.note("sim.pool_speedup", one_thread_s / pass_s.front(), "x",
           "traced single-thread replay over the untraced " +
               std::to_string(opt.threads) + "-thread pass");
  probe_offline(*s.net, s.scenarios, p.arrow, tr, rep);
  rep.set("trace.coverage", tr.coverage("sim.chain"));
  rep.note("arrow_max_scale", arrow_max, "x", "max_scale_at(ARROW, 0.999)");
}

}  // namespace perfbench

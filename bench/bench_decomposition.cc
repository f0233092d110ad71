// Phase I scenario-count capacity: monolithic LP vs the Benders-style
// decomposition (te::solve_phase1_decomposed).
//
// The monolithic Table 2 model carries every scenario's slack rows from the
// start, so its size — and its solve time — grows linearly in the scenario
// count whether or not those rows bind. The decomposition's master only ever
// holds the rows pricing proved necessary, which is what lets it climb a
// synthetic scenario ladder (all single + double + triple cuts on B4) past
// the point where the monolithic solve blows the per-solve budget.
//
// Each rung solves Phase I both ways under the same wall-clock budget
// (solver::ScopedSolveDeadline — a timed-out or otherwise non-optimal solve
// marks the rung failed for that path). Gates, enforced via exit status:
//
//   * the decomposed path completes every rung of the ladder;
//   * its capacity (largest completed rung) is >= the monolithic capacity;
//   * on the smallest rung, where both complete, the winners agree exactly;
//   * full mode only: the ladder tops out at >= 500 scenarios, so the run
//     demonstrates the instance class the monolithic path cannot reach.
//
// Environment knobs: ARROW_BENCH_FAST=1 shrinks the ladder and the per-solve
// budget for CI (bench-smoke). Results land in BENCH_decomposition.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "scenario/scenario.h"
#include "solver/lp.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"

using namespace arrow;
using Clock = std::chrono::steady_clock;

namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// All distinct 1-, 2- and 3-fiber cut sets, largest first by |cuts| last so
// the ladder's prefix slices grow from the easy singles into the deep tail.
// Probabilities are nominal — Phase I never reads them.
std::vector<scenario::Scenario> synthetic_scenarios(const topo::Network& net,
                                                    int want) {
  const int F = static_cast<int>(net.optical.fibers.size());
  std::vector<scenario::Scenario> all;
  for (int a = 0; a < F; ++a) all.push_back({{a}, 1e-3});
  for (int a = 0; a < F && static_cast<int>(all.size()) < 4 * want; ++a) {
    for (int b = a + 1; b < F; ++b) all.push_back({{a, b}, 1e-4});
  }
  for (int a = 0; a < F && static_cast<int>(all.size()) < 4 * want; ++a) {
    for (int b = a + 1; b < F; ++b) {
      for (int c = b + 1; c < F; ++c) all.push_back({{a, b, c}, 1e-5});
    }
  }
  auto kept = scenario::remove_disconnecting(net, all);
  if (static_cast<int>(kept.size()) > want) {
    kept.resize(static_cast<std::size_t>(want));
  }
  return kept;
}

struct RungResult {
  bool completed = false;
  double solve_ms = 0.0;
  te::Phase1Result p1;
};

RungResult run_rung(const te::TeInput& input, const te::ArrowPrepared& prep,
                    const te::RestorabilityCache& cache,
                    const te::ArrowParams& params, util::ThreadPool& pool,
                    double budget_s) {
  RungResult out;
  const auto t0 = Clock::now();
  {
    solver::ScopedSolveDeadline deadline(util::Deadline::after(budget_s));
    out.p1 = te::solve_phase1(input, prep, params, pool, &cache);
  }
  out.solve_ms = seconds_since(t0) * 1e3;
  out.completed = out.p1.optimal;
  return out;
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const bool fast_mode = env_flag("ARROW_BENCH_FAST");
  const topo::Network net = topo::build_b4();
  const double budget_s = fast_mode ? 2.0 : 10.0;
  const std::vector<int> ladder =
      fast_mode ? std::vector<int>{30, 60, 120}
                : std::vector<int>{100, 250, 500, 650};

  util::Rng rng(2024);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto ms = traffic::generate_traffic(net, tp, rng);
  const auto scenarios = synthetic_scenarios(net, ladder.back());
  if (static_cast<int>(scenarios.size()) < ladder.back()) {
    std::fprintf(stderr, "FAIL: only %zu synthetic scenarios for a %d-rung\n",
                 scenarios.size(), ladder.back());
    return 1;
  }

  te::TunnelParams tun;
  tun.tunnels_per_flow = 4;
  te::ArrowParams params;
  params.tickets.num_tickets = 4;

  const int n_threads = util::default_thread_count();
  util::ThreadPool pool(n_threads);

  // One offline stage over the full set; each rung slices its prefix.
  util::Rng prep_rng(7);
  te::TeInput full_input(net, ms[0], scenarios, tun);
  const double demand_scale = te::max_satisfiable_scale(full_input) * 0.6;
  const auto prepared = te::prepare_arrow(full_input, params, prep_rng, pool);

  bench::BenchJson out("decomposition");
  out.set("topology", net.name);
  out.set("scenario_pool", static_cast<long long>(scenarios.size()));
  out.set("budget_s", budget_s);
  out.set("threads", n_threads);
  out.set("hardware_concurrency",
          static_cast<long long>(std::thread::hardware_concurrency()));

  bool ok = true;
  int mono_capacity = 0, deco_capacity = 0;
  te::ArrowParams mono_params = params;
  te::ArrowParams deco_params = params;
  deco_params.decomposition.enabled = true;

  // The decomposed rungs chain through one warm-start cache: scenario q's
  // tagged sub-LP basis from rung k warm-starts q's sub-LP at rung k+1 (the
  // shapes are per-scenario, not per-rung).
  solver::ScopedWarmStartCache warm;

  for (std::size_t ri = 0; ri < ladder.size(); ++ri) {
    const int Q = ladder[ri];
    const std::vector<scenario::Scenario> slice(
        scenarios.begin(), scenarios.begin() + Q);
    te::TeInput input(net, ms[0], slice, tun);
    input.scale_demands(demand_scale);
    te::ArrowPrepared prep;
    prep.rwa.assign(prepared.rwa.begin(), prepared.rwa.begin() + Q);
    prep.tickets.assign(prepared.tickets.begin(),
                        prepared.tickets.begin() + Q);
    const te::RestorabilityCache cache(input, prep, pool);

    const RungResult mono =
        run_rung(input, prep, cache, mono_params, pool, budget_s);
    const RungResult deco =
        run_rung(input, prep, cache, deco_params, pool, budget_s);
    if (mono.completed) mono_capacity = Q;
    if (deco.completed) deco_capacity = Q;

    char key[64];
    const auto rung_key = [&](const char* suffix) {
      std::snprintf(key, sizeof(key), "q%d_%s", Q, suffix);
      return std::string(key);
    };
    out.set(rung_key("monolithic_ms"), mono.solve_ms);
    out.set(rung_key("monolithic_completed"), mono.completed ? 1 : 0);
    out.set(rung_key("decomposed_ms"), deco.solve_ms);
    out.set(rung_key("decomposed_completed"), deco.completed ? 1 : 0);
    out.set(rung_key("decomposed_rounds"), deco.p1.decomposition_rounds);
    out.set(rung_key("decomposed_cuts"), deco.p1.decomposition_cuts);
    std::printf(
        "Q=%4d  monolithic %8.1f ms (%s)   decomposed %8.1f ms "
        "(%s, %lld rounds, %lld cuts, %lld sub-solves)\n",
        Q, mono.solve_ms, mono.completed ? "ok" : "BUDGET", deco.solve_ms,
        deco.completed ? "ok" : "BUDGET", deco.p1.decomposition_rounds, deco.p1.decomposition_cuts,
        deco.p1.decomposition_sub_solves);

    if (!deco.completed) {
      std::fprintf(stderr,
                   "FAIL: decomposed Phase I missed the %.1fs budget at "
                   "Q=%d\n", budget_s, Q);
      ok = false;
    }
    // Where both paths complete, they must be solving the same problem:
    // identical winners, not merely close objectives.
    if (mono.completed && deco.completed &&
        mono.p1.winners != deco.p1.winners) {
      std::fprintf(stderr,
                   "FAIL: winner disagreement between the monolithic and "
                   "decomposed Phase I at Q=%d\n", Q);
      ok = false;
    }
  }

  out.set("monolithic_capacity", mono_capacity);
  out.set("decomposed_capacity", deco_capacity);
  out.set("warm_start_hits", warm.hits());
  std::printf("capacity within %.1fs/solve: monolithic %d, decomposed %d "
              "(%d warm-start hits across rungs)\n",
              budget_s, mono_capacity, deco_capacity, warm.hits());

  if (deco_capacity < mono_capacity) {
    std::fprintf(stderr,
                 "FAIL: decomposed capacity %d below monolithic %d\n",
                 deco_capacity, mono_capacity);
    ok = false;
  }
  if (!fast_mode && deco_capacity < 500) {
    std::fprintf(stderr,
                 "FAIL: decomposed capacity %d below the 500-scenario bar\n",
                 deco_capacity);
    ok = false;
  }

  out.set("status", std::string(ok ? "ok" : "fail"));
  out.write();
  return ok ? 0 : 1;
}

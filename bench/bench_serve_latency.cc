// Tick-to-plan latency of the resident daemon engine (arrowctl serve): a
// TickEngine under a hard 50 ms per-tick budget, fed a stream of shifting
// traffic matrices with a fiber cut and repair mid-stream. This measures
// the serving path the socket front end dispatches into — demand rebind +
// re-solve from the previous tick's bases, through the session's warm-start
// cache (open in every session, no basis store needed) — without socket
// noise.
//
// Reported (BENCH_serve_latency.json): p50/p99/worst tick-to-plan, the rung
// distribution, deadline overruns, and the cut's restoration latency.
//
// Gates (exit nonzero on violation):
//   * every tick is served: N tick requests produce N plans, each
//     attributed to exactly one ladder rung (te_runs == ticks);
//   * the cut and repair are both handled with the plan stream intact;
//   * tick-to-plan stays bounded: a tick may lose at most the budget plus
//     one un-interruptible LP attempt — generous slack for ASan/CI, but a
//     regression to un-deadlined solving still trips it;
//   * ticks warm-start: once a tick has landed on the primary rung, every
//     later primary tick starts at least one LP from the cache (its
//     warm_start_hits grow), so a tick never re-solves cold.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "obs/report.h"
#include "serve/engine.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace arrow;

namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const bool fast_mode = env_flag("ARROW_BENCH_FAST");

  // The testbed network: the largest built-in whose primary ARROW solve
  // fits a 50 ms budget (b4's cold solve alone costs ~6x the budget, which
  // would turn this into an all-ECMP bench that measures nothing).
  const topo::Network net = topo::build_testbed();
  util::Rng trng(7);
  traffic::TrafficParams tp;
  tp.num_matrices = 4;  // the stream cycles through these
  const auto tms = traffic::generate_traffic(net, tp, trng);

  constexpr double kBudgetS = 0.050;
  serve::EngineConfig config;
  config.ctrl.te_budget_s = kBudgetS;
  config.ctrl.tunnels.tunnels_per_flow = 4;
  config.ctrl.arrow.tickets.num_tickets = 4;
  config.ctrl.scenarios.probability_cutoff = 0.004;
  config.ctrl.demand_scale = 0.2;

  const int ticks = fast_mode ? 12 : 60;
  serve::TickEngine engine(config);
  const auto topo_res = engine.set_topology(net);
  if (!topo_res.ok) {
    std::fprintf(stderr, "FAIL: set_topology: %s\n", topo_res.error.c_str());
    return 1;
  }

  bool ok = true;
  std::vector<double> tick_s;
  int overruns = 0;
  int prev_hits = 0;
  bool primary_seen = false;
  int cold_primary_ticks = 0;  // primary after a primary, no warm start
  double restoration_latency_s = -1.0;
  for (int i = 0; i < ticks; ++i) {
    const auto res = engine.tick(tms[static_cast<std::size_t>(i) % tms.size()]);
    if (!res.ok) {
      std::fprintf(stderr, "FAIL: tick %d not served: %s\n", i,
                   res.error.c_str());
      ok = false;
      break;
    }
    tick_s.push_back(res.seconds);
    if (res.deadline_overrun) ++overruns;
    const int hits = engine.report().warm_start_hits;
    if (res.rung == ctrl::Rung::kPrimary) {
      if (primary_seen && hits == prev_hits) ++cold_primary_ticks;
      primary_seen = true;
    }
    prev_hits = hits;

    // Mid-stream failure event: cut after a third of the ticks, splice
    // after two thirds — the surrounding ticks must keep landing.
    if (i == ticks / 3) {
      const auto cut = engine.cut(0);
      if (!cut.ok) {
        std::fprintf(stderr, "FAIL: cut not handled: %s\n", cut.error.c_str());
        ok = false;
      } else {
        restoration_latency_s = cut.latency_s;
      }
    }
    if (i == (2 * ticks) / 3 && !engine.repair(0)) {
      std::fprintf(stderr, "FAIL: repair not handled\n");
      ok = false;
    }
  }

  // Gate 1: every tick served, each attributed to exactly one rung.
  const obs::RunReport report = engine.report();
  if (engine.ticks() != ticks || report.te_runs != ticks) {
    std::fprintf(stderr, "FAIL: served %d of %d ticks\n", engine.ticks(),
                 ticks);
    ok = false;
  }
  long long rung_total = 0;
  for (const auto& [rung, count] : report.ladder) rung_total += count;
  if (rung_total != ticks) {
    std::fprintf(stderr, "FAIL: rung accounting covers %lld of %d ticks\n",
                 rung_total, ticks);
    ok = false;
  }
  if (report.cuts_handled != 1) {
    std::fprintf(stderr, "FAIL: %d cuts handled, expected 1\n",
                 report.cuts_handled);
    ok = false;
  }
  // The budget must be real, not merely survived: if every tick degraded,
  // the bench is measuring fallback arithmetic, not the serving path.
  if (report.degraded_periods >= ticks) {
    std::fprintf(stderr, "FAIL: all %d ticks degraded below primary\n",
                 ticks);
    ok = false;
  }

  // Gate 2: bounded tick-to-plan (budget + one un-interruptible attempt,
  // with generous sanitizer/CI slack).
  const double worst =
      tick_s.empty() ? 0.0 : *std::max_element(tick_s.begin(), tick_s.end());
  const double bound_s = kBudgetS + 2.0;
  if (worst > bound_s) {
    std::fprintf(stderr, "FAIL: worst tick-to-plan %.3fs exceeds %.3fs\n",
                 worst, bound_s);
    ok = false;
  }

  // Gate 3: ticks after the first re-solve from the cache, not cold.
  if (cold_primary_ticks > 0 || (ticks > 1 && report.warm_start_hits == 0)) {
    std::fprintf(stderr,
                 "FAIL: %d primary ticks after the first solved cold "
                 "(%d warm-start hits)\n",
                 cold_primary_ticks, report.warm_start_hits);
    ok = false;
  }

  const double p50 = percentile(tick_s, 0.50);
  const double p99 = percentile(tick_s, 0.99);
  std::printf("tick-to-plan over %zu ticks (budget %.0fms): p50 %.1fms, "
              "p99 %.1fms, worst %.1fms, %d overruns\n",
              tick_s.size(), kBudgetS * 1e3, p50 * 1e3, p99 * 1e3, worst * 1e3,
              overruns);
  std::printf("rungs:");
  for (const auto& [rung, count] : report.ladder) {
    if (count > 0) std::printf(" %s %d", rung.c_str(), count);
  }
  std::printf("; restoration latency %.1fs; %d warm-start hits\n",
              restoration_latency_s, report.warm_start_hits);

  bench::BenchJson out("serve_latency");
  out.set("threads", util::default_thread_count());
  out.set("budget_ms", kBudgetS * 1e3);
  out.set("ticks", ticks);
  out.set("tick_p50_ms", p50 * 1e3);
  out.set("tick_p99_ms", p99 * 1e3);
  out.set("tick_worst_ms", worst * 1e3);
  out.set("deadline_overruns", overruns);
  out.set("degraded_ticks", report.degraded_periods);
  out.set("restoration_latency_s", restoration_latency_s);
  out.set("warm_start_hits", report.warm_start_hits);
  out.write();
  return ok ? 0 : 1;
}

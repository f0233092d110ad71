// Time-to-any-plan under a hard 50 ms TE-period budget with injected slow
// solves (resilience::FaultConfig::solve_delay_*): the deadline-enforced
// degradation ladder must hand SOME rung's plan to the data plane for every
// period, quickly, no matter how slowly the LP solver is running.
//
// Reported (BENCH_deadline_ladder.json): p50/p99 of the per-matrix ladder
// wall time (time-to-any-plan) across repeated runs with different fault
// seeds, the rung distribution, and the timeout/backoff counters.
//
// Gates (exit nonzero on violation):
//   * every TE matrix in every run is served by exactly one rung — a plan
//     always exists, even when every solve stalls past the whole budget;
//   * the stalls actually bit: at least one solve returned kTimedOut and at
//     least one period degraded below the primary rung;
//   * time-to-any-plan stays bounded: the slowest ladder walk costs at most
//     a small multiple of the budget + one un-interruptible stall, far
//     below the un-deadlined alternative of waiting out every rung.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "controller/controller.h"
#include "resilience/harness.h"
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

  const topo::Network net = topo::build_b4();
  util::Rng trng(7);
  traffic::TrafficParams tp;
  tp.num_matrices = 2;
  const auto tms = traffic::generate_traffic(net, tp, trng);

  ctrl::ControllerConfig config;
  config.scheme = "ARROW";
  config.horizon_s = 2.0 * 3600.0;
  config.te_interval_s = 600.0;
  config.tunnels.tunnels_per_flow = 4;
  config.arrow.tickets.num_tickets = 4;
  config.scenarios.probability_cutoff = 0.004;
  config.demand_scale = 0.2;

  // The scenario under test: a 50 ms period budget while every LP solve
  // stalls for 40 ms — most of the budget gone in a single solve, so the
  // per-rung deadlines (25 ms primary / 15 ms retry) expire almost
  // immediately and the ladder has to fall through to the closed-form rungs.
  constexpr double kBudgetS = 0.050;
  constexpr double kStallS = 0.040;
  config.te_budget_s = kBudgetS;

  const int runs = fast_mode ? 3 : 10;
  std::vector<double> time_to_plan_s;
  long long timeouts = 0, backoff_retries = 0, degraded = 0;
  std::vector<long long> rung_counts(ctrl::kNumRungs, 0);
  bool ok = true;

  for (int r = 0; r < runs; ++r) {
    resilience::FaultConfig fc;
    fc.seed = static_cast<std::uint64_t>(100 + r);
    fc.solve_delay_rate = 1.0;
    fc.solve_delay_s = kStallS;
    util::Rng rng(19 + static_cast<std::uint64_t>(r));
    const auto run =
        resilience::run_with_faults(net, tms, {}, config, fc, rng);
    const auto& report = run.report;

    // Gate 1: a plan for every period, each attributed to exactly one rung.
    long long served = 0;
    for (int c : report.fallback_counts) served += c;
    if (served != report.te_runs ||
        static_cast<int>(report.solve_seconds_by_matrix.size()) !=
            report.te_runs) {
      std::fprintf(stderr,
                   "FAIL: run %d served %lld of %d TE matrices\n", r, served,
                   report.te_runs);
      ok = false;
    }
    if (run.counts.solves_delayed == 0) {
      std::fprintf(stderr, "FAIL: run %d injected no slow solves\n", r);
      ok = false;
    }
    for (double s : report.solve_seconds_by_matrix) {
      time_to_plan_s.push_back(s);
    }
    for (int i = 0; i < ctrl::kNumRungs; ++i) {
      rung_counts[static_cast<std::size_t>(i)] += report.fallback_counts[i];
    }
    timeouts += report.solver_timeouts;
    backoff_retries += report.backoff_retries;
    degraded += report.degraded_periods;
  }

  // Gate 2: the deadline machinery actually engaged.
  if (timeouts == 0) {
    std::fprintf(stderr, "FAIL: no solve returned kTimedOut under stalls\n");
    ok = false;
  }
  if (degraded == 0) {
    std::fprintf(stderr, "FAIL: no period degraded under a 50ms budget\n");
    ok = false;
  }

  // Gate 3: bounded time-to-any-plan. A ladder walk may lose one
  // un-interruptible stall per LP attempt before the expired deadline stops
  // further rungs; anything past a handful of stalls means the ladder kept
  // issuing LP work after the budget was gone. Generous slack for ASan/CI.
  const double worst = time_to_plan_s.empty()
                           ? 0.0
                           : *std::max_element(time_to_plan_s.begin(),
                                               time_to_plan_s.end());
  const double bound_s = kBudgetS + 8.0 * kStallS + 0.5;
  if (worst > bound_s) {
    std::fprintf(stderr,
                 "FAIL: worst time-to-any-plan %.3fs exceeds bound %.3fs\n",
                 worst, bound_s);
    ok = false;
  }

  const double p50 = percentile(time_to_plan_s, 0.50);
  const double p99 = percentile(time_to_plan_s, 0.99);
  std::printf("time-to-any-plan over %zu ladder walks (budget %.0fms, "
              "stall %.0fms): p50 %.1fms, p99 %.1fms, worst %.1fms\n",
              time_to_plan_s.size(), kBudgetS * 1e3, kStallS * 1e3, p50 * 1e3,
              p99 * 1e3, worst * 1e3);
  std::printf("rungs: primary %lld, retry %lld, ffc %lld, carry %lld, "
              "ecmp %lld; timeouts %lld, backoff retries %lld\n",
              rung_counts[0], rung_counts[1], rung_counts[2], rung_counts[3],
              rung_counts[4], timeouts, backoff_retries);

  bench::BenchJson out("deadline_ladder");
  out.set("threads", util::default_thread_count());
  out.set("budget_ms", kBudgetS * 1e3);
  out.set("stall_ms", kStallS * 1e3);
  out.set("runs", runs);
  out.set("samples", static_cast<long long>(time_to_plan_s.size()));
  out.set("time_to_plan_p50_ms", p50 * 1e3);
  out.set("time_to_plan_p99_ms", p99 * 1e3);
  out.set("time_to_plan_worst_ms", worst * 1e3);
  out.set("solver_timeouts", timeouts);
  out.set("backoff_retries", backoff_retries);
  out.set("degraded_periods", degraded);
  out.set("rung_primary", rung_counts[0]);
  out.set("rung_relaxed_retry", rung_counts[1]);
  out.set("rung_ffc_fallback", rung_counts[2]);
  out.set("rung_carry_forward", rung_counts[3]);
  out.set("rung_ecmp", rung_counts[4]);
  out.write();
  return ok ? 0 : 1;
}

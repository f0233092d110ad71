// Demand-scaling sweeps (paper §6.1, Fig. 13 / Table 5): for each traffic
// matrix, calibrate demands so scale 1.0 is exactly fully satisfiable, then
// sweep a multiplier grid, solve every TE scheme at every scale, and average
// availability across matrices.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "schemes/scheme.h"
#include "sim/availability.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "te/ffc.h"
#include "te/teavar.h"

namespace arrow::sim {

struct SweepParams {
  std::vector<double> scales = {1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5};
  // Schemes to race, by registry name (schemes::Registry), in this order.
  // Defaults to the paper's six in canonical order; an unknown name fails
  // the sweep before any LP, with the registered names in the error.
  std::vector<std::string> schemes = {"ARROW",  "ARROW-Naive", "FFC-1",
                                      "FFC-2",  "TeaVaR",      "ECMP"};
  // Chain each scheme's scale grid through a solver::ScopedWarmStartCache:
  // scale s_{i+1}'s LP starts from s_i's optimal basis instead of all-slack.
  // Results stay optimal either way; only the pivot count changes.
  bool warm_start = true;
  te::TunnelParams tunnels;
  te::ArrowParams arrow;
  te::TeaVarParams teavar;
  int ffc2_max_double_scenarios = 0;  // cap for very large topologies
  schemes::ReWeaveParams reweave;
  schemes::PxtParams pxt;
};

struct SweepResult {
  std::vector<std::string> schemes;
  std::vector<double> scales;
  // availability[scheme][scale index], averaged over traffic matrices.
  std::map<std::string, std::vector<double>> availability;
  std::map<std::string, std::vector<double>> throughput;
  // Total simplex pivots per scheme, summed over matrices and scales (not
  // averaged). The warm-start win shows up here: same availability curve,
  // fewer pivots. Telemetry about the path taken, not part of the scientific
  // output: flipping ArrowParams::decomposition changes which LPs run (master
  // rounds vs one monolithic Phase I), so this total
  // legitimately differs while availability/throughput/winners stay
  // byte-identical (tests/decomposition_test.cc).
  std::map<std::string, long long> simplex_iterations;

  // solve_failures[scheme][scale index]: matrices whose TE solve came back
  // non-optimal at that (scheme, scale). Failed slots are excluded from the
  // availability/throughput means (a failed solve used to be silently
  // averaged in as 0.0, dragging the curve down with no signal); a slot
  // where every matrix failed reports 0 availability and its failure count
  // carries the evidence. The decomposed Phase I keeps the contract: any
  // non-optimal master solve fails the whole ARROW solve
  // (TeSolution::optimal == false), so a single poisoned master lands here
  // for exactly the (scheme, scale) slots it hit.
  std::map<std::string, std::vector<int>> solve_failures;

  // Runtime-repair telemetry, summed over matrices, scales, and scenarios.
  // Populated (non-zero) only for schemes whose capabilities() advertise
  // supports_local_repair: those are evaluated repair-aware — each failure
  // scenario is scored under the plan on_cut() installs, not the pre-cut
  // plan — and these maps record what the repairs cost. Like
  // simplex_iterations this is telemetry about the path taken; the
  // *_seconds / latency sums carry wall time and are not thread-count
  // reproducible.
  std::map<std::string, long long> repair_cuts;       // on_cut() ok
  std::map<std::string, long long> repair_local;      // local LP sufficed
  std::map<std::string, long long> repair_fallbacks;  // global re-solve
  std::map<std::string, long long> repair_simplex_iterations;
  std::map<std::string, double> repair_solve_seconds;
  std::map<std::string, double> repair_latency_s;  // summed restoration lag

  // Failures summed over every scheme and scale — the "this sweep is clean"
  // assertion benches make before trusting the curves.
  long long total_solve_failures() const;

  // Largest scale sustaining the availability target: the first downward
  // crossing of the curve, linearly interpolated between grid points.
  // Returns 0 if even the smallest scale misses the target, and the last
  // grid scale if the curve never drops below it. Scanning stops at the
  // first crossing — a non-monotone curve (solver noise at high scales)
  // must not resurrect a later, larger answer. A scheme that was not swept
  // throws std::logic_error naming the swept and registered schemes.
  double max_scale_at(const std::string& scheme, double target) const;
};

// What a run of cut-time repairs cost, accumulated by
// evaluate_with_repairs (and summed into SweepResult's repair_* maps).
struct RepairStats {
  long long cuts = 0;       // on_cut() returned a repaired plan
  long long local = 0;      // the bounded local LP sufficed
  long long fallbacks = 0;  // degraded to a global re-solve
  long long iterations = 0;
  double solve_seconds = 0.0;
  double latency_s = 0.0;
};

// Repair-aware evaluation for supports_local_repair schemes: each failure
// scenario is scored under the plan scheme.on_cut() would install at
// runtime — evaluate()'s exact probability weighting otherwise, with the
// healthy state and LP-view throughput taken from the installed plan. A
// scenario whose repair fails (ok == false) falls back to the installed
// plan, like a controller that shipped nothing. Used by run_sweep and by
// callers racing repair-capable schemes outside a sweep (arrowctl te,
// bench_scheme_matchup).
Evaluation evaluate_with_repairs(const te::TeInput& input,
                                 const te::TeSolution& sol,
                                 schemes::Scheme& scheme, RepairStats* stats);

// Solves every (traffic matrix, scheme) chain as one pool task; within a
// chain the scales run sequentially (that order is what the warm-start
// basis handoff exploits). Each chain writes its own slot and the slots are
// merged in a fixed order afterwards, so availability/throughput sums are
// bit-identical at any thread count.
SweepResult run_sweep(const topo::Network& net,
                      const std::vector<traffic::TrafficMatrix>& matrices,
                      const std::vector<scenario::Scenario>& scenarios,
                      const SweepParams& params, util::Rng& rng,
                      util::ThreadPool& pool);

// Convenience overload on the process-wide pool (util::global_pool()).
SweepResult run_sweep(const topo::Network& net,
                      const std::vector<traffic::TrafficMatrix>& matrices,
                      const std::vector<scenario::Scenario>& scenarios,
                      const SweepParams& params, util::Rng& rng);

}  // namespace arrow::sim

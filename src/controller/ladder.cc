#include "controller/ladder.h"

#include "solver/lp.h"
#include "te/basic.h"
#include "te/ffc.h"
#include "util/clock.h"

namespace arrow::ctrl {

te::TeSolution carry_forward(const te::TeSolution& last_good,
                             const te::TeInput& input) {
  te::TeSolution sol = last_good;
  sol.scheme = "CarryForward(" + last_good.scheme + ")";
  sol.optimal = true;  // feasible by construction, not an optimum
  sol.solve_seconds = 0.0;
  static_cast<obs::SolveWork&>(sol) = {};
  // Carry the per-flow *splitting ratios* forward and let admission follow
  // demand (what the installed router config does between TE runs: split
  // weights stay, traffic volume changes). Oversubscription this may cause
  // on a shifted matrix is resolved by the delivery model's per-link
  // scaling.
  const auto& flows = input.flows();
  for (std::size_t f = 0; f < sol.alloc.size() && f < flows.size(); ++f) {
    const double demand = flows[f].demand_gbps;
    double total = 0.0;
    for (double a : sol.alloc[f]) total += a;
    if (total > 1e-9) {
      const double scale = demand / total;
      for (double& a : sol.alloc[f]) a *= scale;
      if (f < sol.admitted.size()) sol.admitted[f] = demand;
    } else if (f < sol.admitted.size()) {
      sol.admitted[f] = 0.0;
    }
  }
  return sol;
}

std::string rung_metric_name(Rung r) {
  std::string name = to_string(r);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

void solve_bottom_rung(const te::TeInput& input,
                       const te::TeSolution* last_good, LadderOutcome* out) {
  if (last_good != nullptr) {
    out->sol = carry_forward(*last_good, input);
    out->rung = Rung::kCarryForward;
  } else {
    out->sol = te::solve_ecmp(input);
    out->rung = Rung::kEcmp;
  }
}

LadderOutcome solve_with_ladder(schemes::Scheme& scheme,
                                const te::TeInput& input,
                                const te::ArrowPrepared& prepared,
                                const te::TeSolution* last_good,
                                const te::RestorabilityCache* cache,
                                util::ThreadPool& pool,
                                const util::Deadline& deadline,
                                util::Backoff* backoff) {
  LadderOutcome out;
  solver::ScopedSolveDeadline run_guard(deadline);
  const bool budgeted = deadline.is_set();
  const double t0 = budgeted ? util::mono_now_s() : 0.0;
  const double budget = deadline.remaining_s();  // +inf when unset
  // A rung's share of the period budget (unset when unbudgeted).
  const auto share = [&](double fraction) {
    return budgeted ? util::Deadline::after(budget * fraction)
                    : util::Deadline();
  };
  double lp_seconds = 0.0;
  const auto account = [&]() {
    lp_seconds += out.sol.solve_seconds;
    out.work += out.sol;
  };
  const auto back_off = [&]() {
    if (backoff != nullptr && backoff->sleep(deadline) > 0.0) {
      ++out.backoff_retries;
    }
  };
  // Wall clock (not the sum of per-solve timings): backoff sleeps and
  // model-build time count against the period too. Falls back to the solver
  // timings when unbudgeted, avoiding clock reads on the default path.
  const auto done = [&]() {
    out.seconds = budgeted ? util::mono_now_s() - t0 : lp_seconds;
    out.solver_timeouts = run_guard.timeouts();
    return std::move(out);
  };

  if (!deadline.expired()) {
    solver::ScopedSolveDeadline guard(share(kPrimaryBudgetShare));
    out.sol = scheme.solve(input, prepared, pool, cache);
    account();
    if (out.sol.optimal) return done();
  }

  out.rung = Rung::kRelaxedRetry;
  if (!deadline.expired()) {
    back_off();
    solver::ScopedSolveDeadline guard(share(kRelaxedBudgetShare));
    out.sol = scheme.solve(input, prepared, pool, cache);
    account();
    if (out.sol.optimal) return done();
  }

  // FFC runs under the remainder of the period budget (run_guard alone).
  if (scheme.name() != "FFC-1" &&  // pointless to retry the same LP
      !deadline.expired()) {
    back_off();
    out.sol = te::solve_ffc(input, te::FfcParams{1, 0});
    account();
    out.rung = Rung::kFfcFallback;
    if (out.sol.optimal) return done();
  }

  // Closed-form bottom rungs: no LP, so they cannot fail.
  solve_bottom_rung(input, last_good, &out);
  return done();
}

}  // namespace arrow::ctrl

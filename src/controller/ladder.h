// The degradation ladder as a reusable unit.
//
// A TE period must land on *some* plan inside its wall-clock budget no
// matter what the solver, a fault injector, or the deadline does. This
// header is that guarantee: one call walks the Rung ladder (see
// controller.h) from the configured scheme down to closed-form ECMP,
// enforcing per-rung deadline shares and backoff, and reports which rung
// served the period plus the solver work it cost. ctrl::Session
// (session.h) calls it once per period for both the batch controller and
// the daemon.
#pragma once

#include "controller/controller.h"
#include "schemes/scheme.h"
#include "te/input.h"
#include "util/deadline.h"
#include "util/parallel.h"

namespace arrow::ctrl {

// Shares of the period budget the LP rungs may spend. The primary attempt
// gets half, the retry 30%, FFC whatever is left — so even when every LP
// rung burns its full share, the closed-form bottom rungs still land a plan
// inside the period's deadline.
inline constexpr double kPrimaryBudgetShare = 0.5;
inline constexpr double kRelaxedBudgetShare = 0.3;

// Projects the last successfully solved TeSolution onto the current traffic
// matrix: per-flow *splitting ratios* are carried forward and admission
// follows the new demand (what the installed router config does between TE
// runs). Feasible by construction; never over-admits a shrunken flow.
te::TeSolution carry_forward(const te::TeSolution& last_good,
                             const te::TeInput& input);

struct LadderOutcome {
  te::TeSolution sol;
  Rung rung = Rung::kPrimary;
  double seconds = 0.0;  // wall clock across all attempts this period
  obs::SolveWork work;   // solver work across all attempts
  int solver_timeouts = 0;  // LP solves that returned kTimedOut
  int backoff_retries = 0;  // backoff sleeps taken before retries
  bool deadline_overrun = false;  // seconds > te_budget_s (set by Session)
};

// Rung name with the metric-safe spelling (dashes are not legal in
// Prometheus metric names).
std::string rung_metric_name(Rung r);

// The ladder's closed-form bottom rung: carries `last_good` (nullable)
// forward onto `input`, else solves ECMP, and sets out->sol and out->rung.
// No LP, so it cannot fail; a graceful drain lands here directly.
void solve_bottom_rung(const te::TeInput& input,
                       const te::TeSolution* last_good, LadderOutcome* out);

// Walks the degradation ladder until some rung yields a usable solution.
// The primary and retry rungs run `scheme` with the same solver settings
// (one instance per run, so instance state such as PXT's trail plan is
// computed once). The retry earns its place because an injected fault is
// an independent draw, and because a solve that timed out left its basis
// in the session's warm cache, so the retry resumes from it. The FFC rung
// is skipped when the scheme already is FFC-1.
// kEcmp is closed-form (no LP anywhere in solve_ecmp), so the ladder cannot
// come back empty no matter what the solver or a fault injector does.
//
// `deadline` is this period's whole budget; each LP rung additionally runs
// under its share of it (ScopedSolveDeadline nests, earliest expiry wins).
// A rung whose solve times out — or whose turn comes after the period
// deadline already passed — degrades to the next rung. `last_good`
// (nullable) seeds the carry-forward rung; without it the ladder bottoms
// out at ECMP. `backoff` (nullable) spaces the retry rungs with capped
// jittered delays, never sleeping past the deadline.
LadderOutcome solve_with_ladder(schemes::Scheme& scheme,
                                const te::TeInput& input,
                                const te::ArrowPrepared& prepared,
                                const te::TeSolution* last_good,
                                const te::RestorabilityCache* cache,
                                util::ThreadPool& pool,
                                const util::Deadline& deadline,
                                util::Backoff* backoff);

}  // namespace arrow::ctrl

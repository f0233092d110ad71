// Failure-oblivious building blocks: the plain max-throughput TE LP, ECMP,
// and demand-scale calibration (the paper starts every sweep from a state
// where 100% of demand is satisfiable, §6 "Demand scaling").
//
// Also the TE LP skeleton every LP scheme is built on. Max-throughput, FFC,
// ARROW's Phase I/II/ILP models and ReWeave's global re-solve all start from
// add_base; calibration and TeaVaR, whose variables and cover rows differ,
// take only add_capacity_rows. Every scheme that returns a TeSolution from
// an LP reads it back through extract_solution.
#pragma once

#include <string>
#include <vector>

#include "solver/model.h"
#include "te/input.h"
#include "te/solution.h"

namespace arrow::te {

// Allocation variables of the skeleton: b[f] admitted bandwidth (empty for
// schemes without one), a[f][ti] tunnel allocation, and the constraint index
// of each IP link's capacity row (-1 where no tunnel crosses the link).
struct BaseVars {
  std::vector<solver::VarId> b;
  std::vector<std::vector<solver::VarId>> a;
  std::vector<int> capacity_row;
};

// Constraints (1)-(3) / (7)-(9) of Tables 2/3, maximizing sum_f b_f: per
// flow, b_f in [0, d_f] with objective 1 followed by its a_{f,t} >= 0, then
// one flow-cover row sum_t a_{f,t} >= b_f per flow, then add_capacity_rows.
// With `dead` (a flat-tunnel mask), a_{f,t} of a dead tunnel gets ub = 0 —
// the same shape as the healthy LP, so re-solves under different failures
// warm-start from one another's bases.
BaseVars add_base(solver::Model& model, const TeInput& input,
                  const std::vector<char>* dead = nullptr);

// Healthy capacity rows sum_{t crosses e} a_t <= c_e, one per IP link that
// some tunnel crosses, in link order. Walks the link -> tunnel index, which
// visits tunnels in (flow, ti) order. Returns each link's row index (-1:
// no row).
std::vector<int> add_capacity_rows(
    solver::Model& model, const TeInput& input,
    const std::vector<std::vector<solver::VarId>>& a);

// Reads a solved model back: scheme, status, objective, `seconds`, solver
// counters, then (when optimal) alloc from vars.a and admitted from vars.b.
// With vars.b empty, admitted is left to the caller.
TeSolution extract_solution(const solver::Model& model, const TeInput& input,
                            const BaseVars& vars, std::string scheme,
                            const solver::SolveResult& res, double seconds);

// max sum_f b_f subject to tunnel/capacity constraints only (no failure
// scenarios). This is also the hypothetical "Fully Restorable TE" of Fig. 16:
// a TE that can always restore everything needs no failure headroom.
TeSolution solve_max_throughput(const TeInput& input);

// ECMP baseline (§6): every flow splits its demand equally across its
// tunnels; no failure awareness, no admission control.
TeSolution solve_ecmp(const TeInput& input);

// Largest uniform demand multiplier s such that s * demands are fully
// satisfiable in the healthy state (LP: maximize s). With `ok == nullptr` a
// failed calibration LP throws; otherwise failure sets *ok = false and
// returns 0 so callers (the controller's degradation ladder) can fall back.
double max_satisfiable_scale(const TeInput& input, bool* ok = nullptr);

// LP-free lower bound on the satisfiable scale: the largest s such that an
// even ECMP split of s * demands fits every link. Used as the calibration
// fallback when the LP itself is unavailable (solver fault, deadline).
double ecmp_satisfiable_scale(const TeInput& input);

}  // namespace arrow::te

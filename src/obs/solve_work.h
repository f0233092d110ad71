// Solver work, summed along the chain from one LP solve to a run's report.
//
// solver::SolveResult (one Model::solve), te::TeSolution and
// te::Phase1Result (every solve behind one TE answer) and obs::RunReport
// (every ladder attempt in a run) take SolveWork as a public base, and the
// controller's per-period and per-run tallies carry one. The counters keep
// one spelling at every layer, and each hop is a single `+=` or base
// assignment. It lives in obs because obs is the bottom library that the
// solver, te, controller and the report all link.
#pragma once

namespace arrow::obs {

struct SolveWork {
  long long simplex_iterations = 0;  // simplex pivots
  // Columns the pricing step examined (see solver::LpSolution).
  long long pricing_candidates = 0;
  // Phase I decomposition: master rounds and rows generated lazily into the
  // master (activated cover rows plus optimality cuts). Zero on the
  // monolithic path and for schemes without a Phase I.
  long long decomposition_rounds = 0;
  long long decomposition_cuts = 0;

  SolveWork& operator+=(const SolveWork& o) {
    simplex_iterations += o.simplex_iterations;
    pricing_candidates += o.pricing_candidates;
    decomposition_rounds += o.decomposition_rounds;
    decomposition_cuts += o.decomposition_cuts;
    return *this;
  }
};

// A counter added to SolveWork must also be summed in operator+= (and
// written by RunReport::to_json / from_json); this trips until it is.
static_assert(sizeof(SolveWork) == 4 * sizeof(long long),
              "SolveWork gained a field: sum it in operator+=");

}  // namespace arrow::obs

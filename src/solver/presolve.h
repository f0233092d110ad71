// Identity stand-in for the deleted LP presolve pass.
//
// The simplex solves every LP as given; there is no presolve. This header
// exists only for perfbench/main.cc:390, which maps its LU probe through
// presolve_lp() and falls back to the captured LP when the result is the
// identity, which it always is.
#pragma once

#include <vector>

#include "solver/lp.h"

namespace arrow::solver {

struct Presolved {
  enum class Status { kReduced };

  Status status = Status::kReduced;
  Lp reduced;
  std::vector<int> col_map;

  bool is_identity() const { return true; }
};

inline Presolved presolve_lp(const Lp&, const SimplexOptions&) { return {}; }

}  // namespace arrow::solver

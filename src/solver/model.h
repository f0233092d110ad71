// Gurobi-style model builder on top of the simplex core.
//
// The paper's artifact calls Gurobi from Julia; this Model class plays the
// same role here: declare variables and linear constraints, call solve(),
// read back values. Integer/binary variables trigger a small best-first
// branch-and-bound (used only for the paper's ILP baselines on small nets:
// Table 9's binary ticket selection and the RWA ILP cross-checks).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/solve_work.h"
#include "solver/linexpr.h"
#include "solver/lp.h"

namespace arrow::solver {

enum class VarType : char { kContinuous, kInteger, kBinary };

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNodeLimit,
  kNumericalError,
  // The solve's deadline (SimplexOptions::deadline or an ambient
  // ScopedSolveDeadline) expired. LP path: the result still carries the best
  // basis reached, for warm-starting a retry. MIP path: the incumbent found
  // so far (if any) is reported as the solution, like kNodeLimit.
  kTimedOut,
};

const char* to_string(SolveStatus s);

// The SolveWork base holds the pivots and pricing work of the solve (see
// LpSolution; summed over MIP nodes).
struct SolveResult : obs::SolveWork {
  SolveStatus status = SolveStatus::kNumericalError;
  double objective = 0.0;
  int bb_nodes = 0;           // 0 for pure LPs
  // Final simplex basis (pure LPs only; empty for MIPs and hard failures).
  // Feed it back into a later solve() of a same-shaped model to warm-start.
  Basis basis;
  bool warm_started = false;  // this solve started from a supplied basis
  bool optimal() const { return status == SolveStatus::kOptimal; }
};

class Model {
 public:
  Model() = default;

  // --- construction -------------------------------------------------------
  VarId add_var(double lb, double ub, double obj_coeff,
                std::string name = {}, VarType type = VarType::kContinuous);
  VarId add_binary(double obj_coeff, std::string name = {}) {
    return add_var(0.0, 1.0, obj_coeff, std::move(name), VarType::kBinary);
  }
  void add_constr(const LinExpr& lhs, Sense sense, double rhs,
                  std::string name = {});
  void set_objective_coeff(VarId v, double coeff);
  void set_maximize() { maximize_ = true; }
  void set_minimize() { maximize_ = false; }

  // Tightens a variable's bounds (also how branch-and-bound branches).
  void set_bounds(VarId v, double lb, double ub);

  // --- solving -------------------------------------------------------------
  // warm_start: optional starting basis for the LP path (shape mismatch or
  // numerical trouble falls back to the all-slack start; see solve_lp).
  // Ignored for MIPs — branch-and-bound manages its own node solves.
  SolveResult solve(const Basis* warm_start = nullptr);

  // --- solution access ------------------------------------------------------
  double value(VarId v) const;
  double objective() const { return result_.objective; }
  // Dual value of the i-th constraint (LPs only; insertion order).
  double dual(int constraint_index) const;

  // --- introspection ---------------------------------------------------------
  int num_vars() const { return static_cast<int>(vars_.size()); }
  int num_constrs() const { return static_cast<int>(rows_.size()); }
  int num_integer_vars() const;
  const std::string& var_name(VarId v) const;

  // FNV-1a hash over the objective sense, every variable (bounds, objective,
  // type) and every row (terms, sense, rhs). Two models with the same
  // fingerprint are the same LP/MIP down to variable and row order — how the
  // model-build benches assert that a faster build path produced a
  // bit-identical model without solving it.
  std::uint64_t fingerprint() const;

  SimplexOptions& simplex_options() { return simplex_options_; }
  // Branch-and-bound node budget for MIPs.
  void set_node_limit(int limit) { node_limit_ = limit; }

 private:
  struct VarData {
    double lb, ub, obj;
    VarType type;
    std::string name;
  };
  struct RowData {
    std::vector<std::pair<int, double>> terms;  // (var index, coeff), merged
    Sense sense;
    double rhs;
    std::string name;
  };

  Lp build_lp(const std::vector<double>& lb_override,
              const std::vector<double>& ub_override) const;
  SolveResult solve_mip();

  std::vector<VarData> vars_;
  std::vector<RowData> rows_;
  bool maximize_ = false;
  SimplexOptions simplex_options_;
  int node_limit_ = 200000;

  SolveResult result_;
  std::vector<double> solution_;  // structural variable values
  std::vector<double> duals_;     // per-row duals (sign: user-sense space)
};

}  // namespace arrow::solver

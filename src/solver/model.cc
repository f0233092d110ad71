#include "solver/model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/hash.h"

namespace arrow::solver {

namespace {
constexpr double kIntTol = 1e-6;

// The solve-work counters one simplex call reported.
obs::SolveWork work_of(const LpSolution& sol) {
  obs::SolveWork w;
  w.simplex_iterations = sol.iterations;
  w.pricing_candidates = sol.pricing_candidates;
  return w;
}
}  // namespace

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
    case SolveStatus::kNodeLimit: return "node-limit";
    case SolveStatus::kNumericalError: return "numerical-error";
    case SolveStatus::kTimedOut: return "timed-out";
  }
  return "unknown";
}

VarId Model::add_var(double lb, double ub, double obj_coeff, std::string name,
                     VarType type) {
  ARROW_CHECK(lb <= ub, "variable bounds crossed");
  if (type == VarType::kBinary) {
    lb = std::max(lb, 0.0);
    ub = std::min(ub, 1.0);
  }
  vars_.push_back(VarData{lb, ub, obj_coeff, type, std::move(name)});
  return VarId{static_cast<std::int32_t>(vars_.size() - 1)};
}

void Model::add_constr(const LinExpr& lhs, Sense sense, double rhs,
                       std::string name) {
  RowData row;
  row.sense = sense;
  row.rhs = rhs - lhs.constant();
  row.name = std::move(name);
  // Merge duplicate variables.
  std::map<int, double> merged;
  for (const auto& [v, c] : lhs.terms()) {
    ARROW_CHECK(v.valid() && v.index < static_cast<int>(vars_.size()),
                "constraint references unknown variable");
    merged[v.index] += c;
  }
  row.terms.reserve(merged.size());
  for (const auto& [v, c] : merged) {
    if (c != 0.0) row.terms.emplace_back(v, c);
  }
  rows_.push_back(std::move(row));
}

void Model::set_objective_coeff(VarId v, double coeff) {
  ARROW_CHECK(v.valid() && v.index < static_cast<int>(vars_.size()));
  vars_[static_cast<std::size_t>(v.index)].obj = coeff;
}

void Model::set_bounds(VarId v, double lb, double ub) {
  ARROW_CHECK(v.valid() && v.index < static_cast<int>(vars_.size()));
  ARROW_CHECK(lb <= ub, "variable bounds crossed");
  vars_[static_cast<std::size_t>(v.index)].lb = lb;
  vars_[static_cast<std::size_t>(v.index)].ub = ub;
}

int Model::num_integer_vars() const {
  int n = 0;
  for (const auto& v : vars_) {
    if (v.type != VarType::kContinuous) ++n;
  }
  return n;
}

const std::string& Model::var_name(VarId v) const {
  ARROW_CHECK(v.valid() && v.index < static_cast<int>(vars_.size()));
  return vars_[static_cast<std::size_t>(v.index)].name;
}

std::uint64_t Model::fingerprint() const {
  util::Fnv1a h;
  h.u64(maximize_ ? 1 : 0);
  h.i64(static_cast<std::int64_t>(vars_.size()));
  for (const auto& v : vars_) {
    h.f64(v.lb).f64(v.ub).f64(v.obj).i32(static_cast<std::int32_t>(v.type));
  }
  h.i64(static_cast<std::int64_t>(rows_.size()));
  for (const auto& r : rows_) {
    h.i64(static_cast<std::int64_t>(r.terms.size()));
    for (const auto& [vi, c] : r.terms) h.i32(vi).f64(c);
    h.i32(static_cast<std::int32_t>(r.sense)).f64(r.rhs);
  }
  return h.value();
}

Lp Model::build_lp(const std::vector<double>& lb_override,
                   const std::vector<double>& ub_override) const {
  const int nv = static_cast<int>(vars_.size());
  const int m = static_cast<int>(rows_.size());
  const int n = nv + m;  // structural + one slack per row
  Lp lp;
  lp.a.rows = m;
  lp.a.cols = n;
  lp.cost.assign(static_cast<std::size_t>(n), 0.0);
  lp.lower.assign(static_cast<std::size_t>(n), 0.0);
  lp.upper.assign(static_cast<std::size_t>(n), 0.0);
  lp.rhs.resize(static_cast<std::size_t>(m));

  const double sign = maximize_ ? -1.0 : 1.0;
  for (int j = 0; j < nv; ++j) {
    lp.cost[static_cast<std::size_t>(j)] =
        sign * vars_[static_cast<std::size_t>(j)].obj;
    lp.lower[static_cast<std::size_t>(j)] =
        lb_override[static_cast<std::size_t>(j)];
    lp.upper[static_cast<std::size_t>(j)] =
        ub_override[static_cast<std::size_t>(j)];
  }
  for (int i = 0; i < m; ++i) {
    const RowData& row = rows_[static_cast<std::size_t>(i)];
    lp.rhs[static_cast<std::size_t>(i)] = row.rhs;
    const int slack = nv + i;
    switch (row.sense) {
      case Sense::kLe:
        lp.lower[static_cast<std::size_t>(slack)] = 0.0;
        lp.upper[static_cast<std::size_t>(slack)] = kInf;
        break;
      case Sense::kGe:
        lp.lower[static_cast<std::size_t>(slack)] = -kInf;
        lp.upper[static_cast<std::size_t>(slack)] = 0.0;
        break;
      case Sense::kEq:
        lp.lower[static_cast<std::size_t>(slack)] = 0.0;
        lp.upper[static_cast<std::size_t>(slack)] = 0.0;
        break;
    }
  }

  // CSC assembly: structural columns from the rows, then identity slacks.
  std::vector<int> col_count(static_cast<std::size_t>(n), 0);
  for (const RowData& row : rows_) {
    for (const auto& [v, c] : row.terms) {
      (void)c;
      ++col_count[static_cast<std::size_t>(v)];
    }
  }
  for (int i = 0; i < m; ++i) col_count[static_cast<std::size_t>(nv + i)] = 1;
  lp.a.col_start.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int j = 0; j < n; ++j) {
    lp.a.col_start[static_cast<std::size_t>(j) + 1] =
        lp.a.col_start[static_cast<std::size_t>(j)] +
        col_count[static_cast<std::size_t>(j)];
  }
  const int nnz = lp.a.col_start.back();
  lp.a.row_index.assign(static_cast<std::size_t>(nnz), 0);
  lp.a.value.assign(static_cast<std::size_t>(nnz), 0.0);
  std::vector<int> fill(lp.a.col_start.begin(), lp.a.col_start.end() - 1);
  for (int i = 0; i < m; ++i) {
    for (const auto& [v, c] : rows_[static_cast<std::size_t>(i)].terms) {
      const int k = fill[static_cast<std::size_t>(v)]++;
      lp.a.row_index[static_cast<std::size_t>(k)] = i;
      lp.a.value[static_cast<std::size_t>(k)] = c;
    }
    const int k = fill[static_cast<std::size_t>(nv + i)]++;
    lp.a.row_index[static_cast<std::size_t>(k)] = i;
    lp.a.value[static_cast<std::size_t>(k)] = 1.0;
  }
  return lp;
}

SolveResult Model::solve(const Basis* warm_start) {
  if (num_integer_vars() > 0) {
    result_ = solve_mip();
    static obs::Counter& nodes =
        obs::Registry::global().counter("arrow_mip_nodes_total");
    nodes.add(static_cast<std::uint64_t>(result_.bb_nodes));
    return result_;
  }
  std::vector<double> lb(vars_.size()), ub(vars_.size());
  for (std::size_t j = 0; j < vars_.size(); ++j) {
    lb[j] = vars_[j].lb;
    ub[j] = vars_[j].ub;
  }
  const Lp lp = build_lp(lb, ub);
  const LpSolution sol = solve_lp(lp, simplex_options_, warm_start);
  SolveResult res;
  res += work_of(sol);
  res.basis = sol.basis;
  res.warm_started = sol.warm_started;
  switch (sol.status) {
    case LpStatus::kOptimal: res.status = SolveStatus::kOptimal; break;
    case LpStatus::kInfeasible: res.status = SolveStatus::kInfeasible; break;
    case LpStatus::kUnbounded: res.status = SolveStatus::kUnbounded; break;
    case LpStatus::kIterationLimit:
      res.status = SolveStatus::kIterationLimit;
      break;
    case LpStatus::kNumericalError:
      res.status = SolveStatus::kNumericalError;
      break;
    case LpStatus::kTimedOut: res.status = SolveStatus::kTimedOut; break;
  }
  solution_.assign(vars_.size(), 0.0);
  duals_.assign(rows_.size(), 0.0);
  if (res.status == SolveStatus::kOptimal) {
    for (std::size_t j = 0; j < vars_.size(); ++j) solution_[j] = sol.x[j];
    res.objective = 0.0;
    for (std::size_t j = 0; j < vars_.size(); ++j) {
      res.objective += vars_[j].obj * solution_[j];
    }
    const double sign = maximize_ ? -1.0 : 1.0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      duals_[i] = sign * sol.dual[i];
    }
  }
  result_ = res;
  return res;
}

SolveResult Model::solve_mip() {
  OBS_SPAN("mip_solve");
  struct Node {
    std::vector<double> lb, ub;
    double bound;  // parent LP objective in internal (min) sense
    bool operator<(const Node& other) const { return bound > other.bound; }
  };

  const double sign = maximize_ ? -1.0 : 1.0;
  Node root;
  root.lb.resize(vars_.size());
  root.ub.resize(vars_.size());
  for (std::size_t j = 0; j < vars_.size(); ++j) {
    root.lb[j] = vars_[j].lb;
    root.ub[j] = vars_[j].ub;
  }
  root.bound = -kInf;

  std::priority_queue<Node> open;
  open.push(std::move(root));

  double incumbent_obj = kInf;  // internal (min) sense
  std::vector<double> incumbent_x;
  SolveResult res;
  res.status = SolveStatus::kInfeasible;
  bool root_unbounded = false;
  bool hit_node_limit = false;
  bool timed_out = false;

  // Resolved once: branch-and-bound checks the budget between nodes, and
  // each node's LP additionally honors it via SimplexOptions::deadline.
  const util::Deadline mip_deadline = util::Deadline::earlier(
      simplex_options_.deadline, ScopedSolveDeadline::active_deadline());

  while (!open.empty()) {
    if (mip_deadline.expired()) {
      timed_out = true;
      break;
    }
    if (res.bb_nodes >= node_limit_) {
      hit_node_limit = true;
      break;
    }
    Node node = open.top();
    open.pop();
    if (node.bound >= incumbent_obj - 1e-9) continue;  // pruned by bound
    ++res.bb_nodes;

    const Lp lp = build_lp(node.lb, node.ub);
    const LpSolution sol = solve_lp(lp, simplex_options_);
    res += work_of(sol);
    if (sol.status == LpStatus::kInfeasible) continue;
    if (sol.status == LpStatus::kUnbounded) {
      if (res.bb_nodes == 1) root_unbounded = true;
      break;
    }
    if (sol.status == LpStatus::kTimedOut) {
      // The node LP ran out of budget; the next loop pass will see the
      // expired deadline too, so stop now and report with the incumbent.
      timed_out = true;
      break;
    }
    if (sol.status != LpStatus::kOptimal) continue;  // give up on this node

    double internal_obj = 0.0;
    for (std::size_t j = 0; j < vars_.size(); ++j) {
      internal_obj += sign * vars_[j].obj * sol.x[j];
    }
    if (internal_obj >= incumbent_obj - 1e-9) continue;

    // Most-fractional branching.
    int branch_var = -1;
    double best_frac_dist = kIntTol;
    for (std::size_t j = 0; j < vars_.size(); ++j) {
      if (vars_[j].type == VarType::kContinuous) continue;
      const double v = sol.x[j];
      const double frac = v - std::floor(v);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > best_frac_dist) {
        best_frac_dist = dist;
        branch_var = static_cast<int>(j);
      }
    }
    if (branch_var < 0) {
      // Integral: new incumbent.
      incumbent_obj = internal_obj;
      incumbent_x.assign(sol.x.begin(),
                         sol.x.begin() + static_cast<long>(vars_.size()));
      // Snap integer variables exactly.
      for (std::size_t j = 0; j < vars_.size(); ++j) {
        if (vars_[j].type != VarType::kContinuous) {
          incumbent_x[j] = std::round(incumbent_x[j]);
        }
      }
      continue;
    }

    const double v = sol.x[static_cast<std::size_t>(branch_var)];
    Node down = node;
    down.ub[static_cast<std::size_t>(branch_var)] = std::floor(v);
    down.bound = internal_obj;
    Node up = std::move(node);
    up.lb[static_cast<std::size_t>(branch_var)] = std::ceil(v);
    up.bound = internal_obj;
    if (down.lb[static_cast<std::size_t>(branch_var)] <=
        down.ub[static_cast<std::size_t>(branch_var)]) {
      open.push(std::move(down));
    }
    if (up.lb[static_cast<std::size_t>(branch_var)] <=
        up.ub[static_cast<std::size_t>(branch_var)]) {
      open.push(std::move(up));
    }
  }

  solution_.assign(vars_.size(), 0.0);
  duals_.assign(rows_.size(), 0.0);
  if (root_unbounded) {
    res.status = SolveStatus::kUnbounded;
  } else if (!incumbent_x.empty()) {
    // With a node-limit or deadline stop the incumbent is only a feasible
    // bound; report that status so callers cannot mistake it for a proven
    // optimum (the incumbent is still returned as the solution).
    res.status = timed_out     ? SolveStatus::kTimedOut
                 : hit_node_limit ? SolveStatus::kNodeLimit
                                  : SolveStatus::kOptimal;
    solution_ = incumbent_x;
    res.objective = 0.0;
    for (std::size_t j = 0; j < vars_.size(); ++j) {
      res.objective += vars_[j].obj * solution_[j];
    }
  } else if (timed_out) {
    res.status = SolveStatus::kTimedOut;
  } else if (hit_node_limit) {
    res.status = SolveStatus::kNodeLimit;
  }
  return res;
}

double Model::value(VarId v) const {
  ARROW_CHECK(v.valid() && v.index < static_cast<int>(solution_.size()),
              "value() before solve() or bad var");
  return solution_[static_cast<std::size_t>(v.index)];
}

double Model::dual(int constraint_index) const {
  ARROW_CHECK(constraint_index >= 0 &&
              constraint_index < static_cast<int>(duals_.size()));
  return duals_[static_cast<std::size_t>(constraint_index)];
}

}  // namespace arrow::solver

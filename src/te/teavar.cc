#include "te/teavar.h"

#include <algorithm>
#include <chrono>

#include "te/basic.h"
#include "util/check.h"

namespace arrow::te {

TeSolution solve_teavar(const TeInput& input, const TeaVarParams& params) {
  ARROW_CHECK(params.beta > 0.0 && params.beta < 1.0, "beta in (0,1)");
  const int F = input.num_flows();
  const int Q = input.num_scenarios();

  // Probability mass: enumerated failure scenarios plus the residual
  // "healthy" scenario covering everything below the cutoff.
  double failure_mass = 0.0;
  for (const auto& s : input.scenarios()) failure_mass += s.probability;
  const double healthy_prob = std::max(0.0, 1.0 - failure_mass);

  solver::Model model;
  model.set_minimize();
  std::vector<std::vector<solver::VarId>> a(static_cast<std::size_t>(F));
  for (int f = 0; f < F; ++f) {
    a[static_cast<std::size_t>(f)].resize(
        input.tunnels()[static_cast<std::size_t>(f)].size());
    for (auto& v : a[static_cast<std::size_t>(f)]) {
      v = model.add_var(0.0, solver::kInf, params.allocation_penalty);
    }
  }
  // Losses live in [0, 1], so VaR and the CVaR excesses can be boxed — the
  // tight bounds noticeably reduce simplex wandering on this degenerate LP.
  const auto alpha = model.add_var(0.0, 1.0, 1.0);
  // s_q for the healthy scenario + each failure scenario.
  const double cvar_coeff = 1.0 / (1.0 - params.beta);
  std::vector<solver::VarId> s(static_cast<std::size_t>(Q) + 1);
  s[0] = model.add_var(0.0, 1.0, cvar_coeff * healthy_prob);
  for (int q = 0; q < Q; ++q) {
    s[static_cast<std::size_t>(q) + 1] = model.add_var(
        0.0, 1.0,
        cvar_coeff * input.scenarios()[static_cast<std::size_t>(q)].probability);
  }

  // Headroom cap and capacity rows.
  for (int f = 0; f < F; ++f) {
    const double d = input.flows()[static_cast<std::size_t>(f)].demand_gbps;
    solver::LinExpr sum;
    for (const auto& v : a[static_cast<std::size_t>(f)]) sum.add_term(v, 1.0);
    model.add_constr(sum, solver::Sense::kLe,
                     params.allocation_headroom * d);
  }
  add_capacity_rows(model, input, a);

  // CVaR rows. Scenario loss is the demand-weighted fractional loss
  //   L_q = sum_f (d_f / D) * u_{f,q},   u_{f,q} = max(0, 1 - sum_alive a/d_f)
  // with u as explicit variables (the max(0,.) clamp matters: over-serving
  // one flow must not offset another's loss). Then s_q >= L_q - alpha.
  //
  // A flow unaffected by scenario q sees the same surviving-tunnel set as
  // in the healthy state, so its healthy u variable is reused — scenario
  // rows are created for affected flows only (a large-model saver).
  const double total_demand = std::max(1e-9, input.total_demand());
  const auto add_u = [&](int f, int q_or_healthy) {
    const double d = input.flows()[static_cast<std::size_t>(f)].demand_gbps;
    const auto u = model.add_var(0.0, 1.0, 0.0);
    solver::LinExpr cover;  // u + sum(surviving a)/d >= 1
    cover += solver::LinExpr(u);
    for (std::size_t ti = 0; ti < a[static_cast<std::size_t>(f)].size(); ++ti) {
      const bool survives =
          q_or_healthy < 0 ||
          input.tunnel_alive(f, static_cast<int>(ti), q_or_healthy);
      if (survives) {
        cover.add_term(a[static_cast<std::size_t>(f)][ti], 1.0 / d);
      }
    }
    model.add_constr(cover, solver::Sense::kGe, 1.0);
    return u;
  };

  std::vector<solver::VarId> healthy_u(static_cast<std::size_t>(F));
  {
    solver::LinExpr loss;  // s_0 + alpha - sum_f w_f u_{f,healthy} >= 0
    loss += solver::LinExpr(s[0]);
    loss += solver::LinExpr(alpha);
    for (int f = 0; f < F; ++f) {
      const double d = input.flows()[static_cast<std::size_t>(f)].demand_gbps;
      if (d <= 0.0) continue;
      healthy_u[static_cast<std::size_t>(f)] = add_u(f, -1);
      loss.add_term(healthy_u[static_cast<std::size_t>(f)], -d / total_demand);
    }
    model.add_constr(loss, solver::Sense::kGe, 0.0);
  }
  for (int q = 0; q < Q; ++q) {
    solver::LinExpr loss;
    loss += solver::LinExpr(s[static_cast<std::size_t>(q) + 1]);
    loss += solver::LinExpr(alpha);
    std::vector<char> affected(static_cast<std::size_t>(F), 0);
    for (int f : input.affected_flows(q)) {
      affected[static_cast<std::size_t>(f)] = 1;
    }
    for (int f = 0; f < F; ++f) {
      const double d = input.flows()[static_cast<std::size_t>(f)].demand_gbps;
      if (d <= 0.0) continue;
      const auto u = affected[static_cast<std::size_t>(f)]
                         ? add_u(f, q)
                         : healthy_u[static_cast<std::size_t>(f)];
      loss.add_term(u, -d / total_demand);
    }
    model.add_constr(loss, solver::Sense::kGe, 0.0);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = model.solve();
  TeSolution sol = extract_solution(
      model, input, BaseVars{{}, a, {}}, "TeaVaR", res,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  if (!sol.optimal) return sol;
  // No b_f in this LP: a flow is credited its allocation, capped at demand.
  sol.admitted.resize(static_cast<std::size_t>(F));
  for (int f = 0; f < F; ++f) {
    double total = 0.0;
    for (double val : sol.alloc[static_cast<std::size_t>(f)]) total += val;
    sol.admitted[static_cast<std::size_t>(f)] = std::min(
        total, input.flows()[static_cast<std::size_t>(f)].demand_gbps);
  }
  return sol;
}

}  // namespace arrow::te

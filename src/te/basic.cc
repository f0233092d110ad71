#include "te/basic.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace arrow::te {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

BaseVars add_base(solver::Model& model, const TeInput& input,
                  const std::vector<char>* dead) {
  model.set_maximize();
  const int F = input.num_flows();
  BaseVars vars;
  vars.b.resize(static_cast<std::size_t>(F));
  vars.a.resize(static_cast<std::size_t>(F));
  for (int f = 0; f < F; ++f) {
    vars.b[static_cast<std::size_t>(f)] = model.add_var(
        0.0, input.flows()[static_cast<std::size_t>(f)].demand_gbps, 1.0);
    auto& a = vars.a[static_cast<std::size_t>(f)];
    a.resize(input.tunnels()[static_cast<std::size_t>(f)].size());
    for (std::size_t ti = 0; ti < a.size(); ++ti) {
      const bool is_dead =
          dead != nullptr &&
          (*dead)[static_cast<std::size_t>(
              input.tunnel_index(f, static_cast<int>(ti)))];
      a[ti] = model.add_var(0.0, is_dead ? 0.0 : solver::kInf, 0.0);
    }
  }
  for (int f = 0; f < F; ++f) {
    solver::LinExpr sum;
    for (const auto& v : vars.a[static_cast<std::size_t>(f)]) {
      sum.add_term(v, 1.0);
    }
    sum -= solver::LinExpr(vars.b[static_cast<std::size_t>(f)]);
    model.add_constr(sum, solver::Sense::kGe, 0.0);
  }
  vars.capacity_row = add_capacity_rows(model, input, vars.a);
  return vars;
}

std::vector<int> add_capacity_rows(
    solver::Model& model, const TeInput& input,
    const std::vector<std::vector<solver::VarId>>& a) {
  const auto& links = input.net().ip_links;
  std::vector<int> rows(links.size(), -1);
  for (std::size_t i = 0; i < links.size(); ++i) {
    solver::LinExpr load;
    for (const auto& lt : input.tunnels_on_link(links[i].id)) {
      load.add_term(
          a[static_cast<std::size_t>(lt.flow)][static_cast<std::size_t>(lt.ti)],
          1.0);
    }
    if (!load.terms().empty()) {
      rows[i] = model.num_constrs();
      model.add_constr(load, solver::Sense::kLe, links[i].capacity_gbps());
    }
  }
  return rows;
}

TeSolution extract_solution(const solver::Model& model, const TeInput& input,
                            const BaseVars& vars, std::string scheme,
                            const solver::SolveResult& res, double seconds) {
  TeSolution sol;
  static_cast<obs::SolveWork&>(sol) = res;
  sol.scheme = std::move(scheme);
  sol.optimal = res.optimal();
  sol.objective = res.objective;
  sol.solve_seconds = seconds;
  sol.bb_nodes_hint = res.bb_nodes;
  if (!sol.optimal) return sol;
  const int F = input.num_flows();
  sol.alloc.resize(static_cast<std::size_t>(F));
  for (int f = 0; f < F; ++f) {
    for (const auto& v : vars.a[static_cast<std::size_t>(f)]) {
      sol.alloc[static_cast<std::size_t>(f)].push_back(model.value(v));
    }
  }
  if (vars.b.empty()) return sol;
  sol.admitted.resize(static_cast<std::size_t>(F));
  for (int f = 0; f < F; ++f) {
    sol.admitted[static_cast<std::size_t>(f)] =
        model.value(vars.b[static_cast<std::size_t>(f)]);
  }
  return sol;
}

TeSolution solve_max_throughput(const TeInput& input) {
  solver::Model model;
  const BaseVars vars = add_base(model, input);
  const auto t0 = Clock::now();
  const auto res = model.solve();
  return extract_solution(model, input, vars, "MaxThroughput", res,
                          seconds_since(t0));
}

TeSolution solve_ecmp(const TeInput& input) {
  TeSolution sol;
  sol.scheme = "ECMP";
  sol.optimal = true;
  const int F = input.num_flows();
  sol.admitted.resize(static_cast<std::size_t>(F));
  sol.alloc.resize(static_cast<std::size_t>(F));
  for (int f = 0; f < F; ++f) {
    const auto& flow = input.flows()[static_cast<std::size_t>(f)];
    const auto n = input.tunnels()[static_cast<std::size_t>(f)].size();
    sol.admitted[static_cast<std::size_t>(f)] = flow.demand_gbps;
    sol.alloc[static_cast<std::size_t>(f)].assign(
        n, flow.demand_gbps / static_cast<double>(n));
  }
  sol.objective = sol.total_admitted();
  return sol;
}

double max_satisfiable_scale(const TeInput& input, bool* ok) {
  solver::Model model;
  model.set_maximize();
  const int F = input.num_flows();
  const auto s = model.add_var(0.0, solver::kInf, 1.0);
  std::vector<std::vector<solver::VarId>> a(static_cast<std::size_t>(F));
  for (int f = 0; f < F; ++f) {
    a[static_cast<std::size_t>(f)].resize(
        input.tunnels()[static_cast<std::size_t>(f)].size());
    for (auto& v : a[static_cast<std::size_t>(f)]) {
      v = model.add_var(0.0, solver::kInf, 0.0);
    }
  }
  for (int f = 0; f < F; ++f) {
    const double d = input.flows()[static_cast<std::size_t>(f)].demand_gbps;
    if (d <= 0.0) continue;
    solver::LinExpr sum;
    for (const auto& v : a[static_cast<std::size_t>(f)]) sum.add_term(v, 1.0);
    sum.add_term(s, -d);
    model.add_constr(sum, solver::Sense::kGe, 0.0);
  }
  add_capacity_rows(model, input, a);
  const auto res = model.solve();
  if (ok != nullptr) {
    *ok = res.optimal();
    return res.optimal() ? model.value(s) : 0.0;
  }
  ARROW_CHECK(res.optimal(), "calibration LP failed");
  return model.value(s);
}

double ecmp_satisfiable_scale(const TeInput& input) {
  const auto& net = input.net();
  std::vector<double> load(net.ip_links.size(), 0.0);
  for (int f = 0; f < input.num_flows(); ++f) {
    const auto& tunnels = input.tunnels()[static_cast<std::size_t>(f)];
    if (tunnels.empty()) continue;
    const double per_tunnel =
        input.flows()[static_cast<std::size_t>(f)].demand_gbps /
        static_cast<double>(tunnels.size());
    if (per_tunnel <= 0.0) continue;
    for (const auto& tunnel : tunnels) {
      for (topo::IpLinkId e : tunnel.links) {
        load[static_cast<std::size_t>(e)] += per_tunnel;
      }
    }
  }
  double scale = solver::kInf;
  for (const auto& link : net.ip_links) {
    const double l = load[static_cast<std::size_t>(link.id)];
    if (l > 1e-12) {
      scale = std::min(scale, link.capacity_gbps() / l);
    }
  }
  return std::isfinite(scale) ? scale : 1.0;
}

}  // namespace arrow::te

#include "schemes/reweave.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "schemes/builtin.h"
#include "solver/model.h"
#include "te/basic.h"

namespace arrow::schemes {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Flat-tunnel flags for tunnels crossing any failed link, plus the flows
// owning them. Uses the inverted link -> tunnel index, so the cost is
// proportional to the failure's footprint, not to F x T.
void mark_dead(const te::TeInput& input,
               const std::vector<topo::IpLinkId>& failed_links,
               std::vector<char>* dead, std::vector<char>* affected) {
  dead->assign(static_cast<std::size_t>(input.total_tunnels()), 0);
  affected->assign(static_cast<std::size_t>(input.num_flows()), 0);
  for (topo::IpLinkId e : failed_links) {
    for (const auto& lt : input.tunnels_on_link(e)) {
      (*dead)[static_cast<std::size_t>(lt.flat)] = 1;
      (*affected)[static_cast<std::size_t>(lt.flow)] = 1;
    }
  }
}

}  // namespace

LocalRepairOutcome local_repair(const te::TeInput& input,
                                const te::TeSolution& plan,
                                const std::vector<topo::IpLinkId>& failed_links,
                                const ReWeaveParams& params) {
  LocalRepairOutcome out;
  const auto& net = input.net();
  const int F = input.num_flows();
  std::vector<char> dead, affected;
  mark_dead(input, failed_links, &dead, &affected);

  for (int f = 0; f < F; ++f) {
    if (affected[static_cast<std::size_t>(f)]) {
      ++out.affected_flows;
      out.affected_demand_gbps +=
          input.flows()[static_cast<std::size_t>(f)].demand_gbps;
    }
  }
  if (out.affected_flows == 0) {
    // The cut touched no installed tunnel: the plan is already feasible.
    out.ok = true;
    out.local = true;
    out.plan = plan;
    return out;
  }

  // Background load frozen by the unaffected flows: none of their tunnels
  // crosses a failed link, so their installed allocation stays feasible and
  // only shrinks the headroom of the links it uses.
  std::vector<double> background(net.ip_links.size(), 0.0);
  for (int f = 0; f < F; ++f) {
    if (affected[static_cast<std::size_t>(f)]) continue;
    if (static_cast<std::size_t>(f) >= plan.alloc.size()) continue;
    const auto& tunnels = input.tunnels()[static_cast<std::size_t>(f)];
    const auto& alloc = plan.alloc[static_cast<std::size_t>(f)];
    for (std::size_t ti = 0; ti < alloc.size() && ti < tunnels.size(); ++ti) {
      if (alloc[ti] <= 0.0) continue;
      for (topo::IpLinkId e : tunnels[ti].links) {
        background[static_cast<std::size_t>(e)] += alloc[ti];
      }
    }
  }

  // The bounded local LP: affected flows' surviving tunnels only, capacity
  // rows only for the links those tunnels cross, reduced by the background.
  const auto t0 = Clock::now();
  solver::Model model;
  model.set_maximize();
  std::vector<solver::VarId> b(static_cast<std::size_t>(F));
  // a[flat tunnel] (invalid when the tunnel is not in the local model).
  std::vector<solver::VarId> a(
      static_cast<std::size_t>(input.total_tunnels()));
  for (int f = 0; f < F; ++f) {
    if (!affected[static_cast<std::size_t>(f)]) continue;
    b[static_cast<std::size_t>(f)] = model.add_var(
        0.0, input.flows()[static_cast<std::size_t>(f)].demand_gbps, 1.0);
    const auto& tunnels = input.tunnels()[static_cast<std::size_t>(f)];
    solver::LinExpr sum;
    for (std::size_t ti = 0; ti < tunnels.size(); ++ti) {
      const int flat = input.tunnel_index(f, static_cast<int>(ti));
      if (dead[static_cast<std::size_t>(flat)]) continue;
      a[static_cast<std::size_t>(flat)] =
          model.add_var(0.0, solver::kInf, 0.0);
      sum.add_term(a[static_cast<std::size_t>(flat)], 1.0);
    }
    sum -= solver::LinExpr(b[static_cast<std::size_t>(f)]);
    model.add_constr(sum, solver::Sense::kGe, 0.0);
  }
  for (const auto& link : net.ip_links) {
    solver::LinExpr load;
    for (const auto& lt : input.tunnels_on_link(link.id)) {
      if (!a[static_cast<std::size_t>(lt.flat)].valid()) continue;
      load.add_term(a[static_cast<std::size_t>(lt.flat)], 1.0);
    }
    if (load.terms().empty()) continue;
    const double headroom = std::max(
        0.0, link.capacity_gbps() -
                 background[static_cast<std::size_t>(link.id)]);
    model.add_constr(load, solver::Sense::kLe, headroom);
  }

  const auto res = model.solve();
  out.solve_seconds = seconds_since(t0);
  out.simplex_iterations = res.simplex_iterations;
  out.recovered_gbps = res.optimal() ? res.objective : 0.0;

  const bool full_recovery =
      res.optimal() &&
      out.recovered_gbps >= out.affected_demand_gbps - params.full_recovery_tol;
  if (full_recovery) {
    out.ok = true;
    out.local = true;
    out.plan = plan;
    out.plan.optimal = true;
    for (int f = 0; f < F; ++f) {
      if (!affected[static_cast<std::size_t>(f)]) continue;
      if (static_cast<std::size_t>(f) >= out.plan.alloc.size()) continue;
      const auto& tunnels = input.tunnels()[static_cast<std::size_t>(f)];
      auto& alloc = out.plan.alloc[static_cast<std::size_t>(f)];
      for (std::size_t ti = 0; ti < alloc.size() && ti < tunnels.size();
           ++ti) {
        const int flat = input.tunnel_index(f, static_cast<int>(ti));
        const solver::VarId v = a[static_cast<std::size_t>(flat)];
        alloc[ti] = v.valid() ? model.value(v) : 0.0;
      }
      if (static_cast<std::size_t>(f) < out.plan.admitted.size()) {
        out.plan.admitted[static_cast<std::size_t>(f)] =
            model.value(b[static_cast<std::size_t>(f)]);
      }
    }
    return out;
  }

  if (!params.allow_global_fallback) return out;
  // Local weaving cannot recover the demand: the headroom freed by moving
  // *unaffected* flows is off-limits to the local LP, so escalate to the
  // global re-solve over every surviving tunnel.
  te::TeSolution global = global_resolve(input, failed_links);
  out.solve_seconds += global.solve_seconds;
  out.simplex_iterations += global.simplex_iterations;
  if (!global.optimal) return out;
  out.ok = true;
  out.fell_back_global = true;
  out.recovered_gbps = 0.0;
  for (int f = 0; f < F; ++f) {
    if (affected[static_cast<std::size_t>(f)] &&
        static_cast<std::size_t>(f) < global.admitted.size()) {
      out.recovered_gbps += global.admitted[static_cast<std::size_t>(f)];
    }
  }
  out.plan = std::move(global);
  return out;
}

namespace {

class ReWeaveScheme final : public Scheme {
 public:
  explicit ReWeaveScheme(SchemeOptions options)
      : options_(std::move(options)) {}

  const std::string& name() const override { return name_; }

  Capabilities capabilities() const override {
    Capabilities caps;
    caps.supports_local_repair = true;
    return caps;
  }

  // The installed plan carries no failure headroom — ReWeave's bet is that
  // the cut-time repair is cheap enough to run inside a serving tick.
  te::TeSolution solve(const te::TeInput& input, const te::ArrowPrepared&,
                       util::ThreadPool&,
                       const te::RestorabilityCache*) override {
    te::TeSolution sol = te::solve_max_throughput(input);
    sol.scheme = name_;
    return sol;
  }

  CutRepair on_cut(const CutContext& ctx) override {
    CutRepair repair;
    LocalRepairOutcome outcome =
        local_repair(ctx.input, ctx.plan,
                     ctx.input.net().failed_ip_links(ctx.cuts),
                     options_.reweave);
    repair.ok = outcome.ok;
    repair.local = outcome.local;
    repair.fell_back_global = outcome.fell_back_global;
    repair.solve_seconds = outcome.solve_seconds;
    repair.simplex_iterations = outcome.simplex_iterations;
    repair.plan = std::move(outcome.plan);
    repair.restored_gbps = outcome.recovered_gbps;
    if (repair.ok) {
      repair.latency_s = options_.reweave.detection_s + outcome.solve_seconds +
                         options_.reweave.rebalance_s;
    }
    return repair;
  }

 private:
  const std::string name_ = "ReWeave-Local";
  SchemeOptions options_;
};

}  // namespace

std::unique_ptr<Scheme> make_reweave(const SchemeOptions& options) {
  return std::make_unique<ReWeaveScheme>(options);
}

te::TeSolution global_resolve(const te::TeInput& input,
                              const std::vector<topo::IpLinkId>& failed_links) {
  std::vector<char> dead, affected;
  mark_dead(input, failed_links, &dead, &affected);

  // solve_max_throughput's model with dead tunnels clamped to zero: the
  // shape (variables, rows) is identical to the healthy LP, so chained
  // re-solves across scenarios warm-start from one another's bases. The
  // solve time includes the build, as local_repair's does.
  const auto t0 = Clock::now();
  solver::Model model;
  const te::BaseVars vars = te::add_base(model, input, &dead);
  const auto res = model.solve();
  return te::extract_solution(model, input, vars, "ReWeave-Global", res,
                              seconds_since(t0));
}

}  // namespace arrow::schemes

#include "te/ffc.h"

#include <chrono>
#include <set>

#include "scenario/scenario.h"
#include "te/basic.h"
#include "util/check.h"

namespace arrow::te {

TeSolution solve_ffc(const TeInput& input, const FfcParams& params) {
  ARROW_CHECK(params.k >= 1 && params.k <= 2, "FFC supports k in {1,2}");
  const auto& net = input.net();
  const int F = input.num_flows();

  // (1) flow cover, (2) capacity.
  solver::Model model;
  const BaseVars vars = add_base(model, input);

  // FFC guarantee rows: for every <= k cut scenario, residual tunnels must
  // still cover b_f. Distinct scenarios with identical failed-link sets are
  // deduplicated; flows with all tunnels alive are implied by (1).
  const auto nf = static_cast<int>(net.optical.fibers.size());
  std::set<std::vector<topo::IpLinkId>> seen_failures;
  int double_count = 0;
  const auto add_scenario = [&](const std::vector<topo::FiberId>& cuts) {
    auto failed = net.failed_ip_links(cuts);
    if (failed.empty()) return;
    if (!seen_failures.insert(failed).second) return;
    // A cut that partitions the IP layer makes the zero-loss guarantee
    // vacuous (any b_f across the partition would be forced to zero); such
    // scenarios are excluded from every scheme's scenario set (§6).
    {
      std::vector<scenario::Scenario> probe{{cuts, 0.0}};
      if (scenario::remove_disconnecting(net, std::move(probe)).empty()) {
        return;
      }
    }
    std::vector<char> link_failed(net.ip_links.size(), 0);
    for (int e : failed) link_failed[static_cast<std::size_t>(e)] = 1;
    for (int f = 0; f < F; ++f) {
      const auto& tunnels = input.tunnels()[static_cast<std::size_t>(f)];
      solver::LinExpr alive;
      bool any_dead = false;
      for (std::size_t ti = 0; ti < tunnels.size(); ++ti) {
        bool dead = false;
        for (int e : tunnels[ti].links) {
          if (link_failed[static_cast<std::size_t>(e)]) {
            dead = true;
            break;
          }
        }
        if (dead) {
          any_dead = true;
        } else {
          alive.add_term(vars.a[static_cast<std::size_t>(f)][ti], 1.0);
        }
      }
      if (!any_dead) continue;
      alive -= solver::LinExpr(vars.b[static_cast<std::size_t>(f)]);
      model.add_constr(alive, solver::Sense::kGe, 0.0);
    }
  };
  for (int i = 0; i < nf; ++i) add_scenario({i});
  if (params.k >= 2) {
    for (int i = 0; i < nf; ++i) {
      for (int j = i + 1; j < nf; ++j) {
        if (params.max_double_scenarios > 0 &&
            double_count >= params.max_double_scenarios) {
          break;
        }
        add_scenario({i, j});
        ++double_count;
      }
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = model.solve();
  return extract_solution(
      model, input, vars, params.k == 1 ? "FFC-1" : "FFC-2", res,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace arrow::te

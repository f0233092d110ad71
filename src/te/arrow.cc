#include "te/arrow.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/model.h"
#include "te/basic.h"
#include "util/check.h"

namespace arrow::te {

namespace {

using Clock = std::chrono::steady_clock;

const ticket::LotteryTicket& ticket_or_naive(
    const ArrowPrepared& prepared, const std::vector<ticket::LotteryTicket>& naive,
    int q, int z) {
  if (z >= 0 &&
      z < static_cast<int>(
              prepared.tickets[static_cast<std::size_t>(q)].tickets.size())) {
    return prepared.tickets[static_cast<std::size_t>(q)]
        .tickets[static_cast<std::size_t>(z)];
  }
  return naive[static_cast<std::size_t>(q)];
}

std::vector<ticket::LotteryTicket> make_naive_tickets(const ArrowPrepared& prepared) {
  std::vector<ticket::LotteryTicket> out;
  out.reserve(prepared.rwa.size());
  for (const auto& rwa : prepared.rwa) {
    out.push_back(ticket::naive_ticket(rwa));
  }
  return out;
}

struct Phase2Model {
  solver::Model model;
  BaseVars vars;
};

// Builds the Phase II LP (Table 3) against a chosen ticket per scenario
// (z = -1 selects the naive RWA ticket). Per-scenario cover (10) and
// restored-capacity (11) expressions are generated on `pool` into per-q
// slots — flags from `cache` when one is shared, recomputed inside the body
// otherwise (restorable_flags is pure) — then appended serially in fixed q
// order. Same protocol as build_phase1: each body writes only its own slot,
// so row order and contents are bit-identical at any thread count.
void build_phase2(const TeInput& input, const ArrowPrepared& prepared,
                  const std::vector<ticket::LotteryTicket>& naive,
                  const std::vector<int>& winners,
                  const RestorabilityCache* cache, util::ThreadPool& pool,
                  Phase2Model* out) {
  OBS_SPAN("phase2_build");
  const int Q = input.num_scenarios();
  solver::Model& model = out->model;
  out->vars = add_base(model, input);
  const BaseVars& vars = out->vars;

  struct ScenarioRows {
    std::vector<solver::LinExpr> cover;      // per affected flow of q
    std::vector<solver::LinExpr> link_load;  // per failed link of q
  };
  std::vector<ScenarioRows> rows(static_cast<std::size_t>(Q));
  pool.parallel_for(0, Q, [&](int q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    std::vector<char> fresh;
    if (cache == nullptr) {
      fresh = restorable_flags(
          input, q, tickets,
          ticket_or_naive(prepared, naive, q,
                          winners[static_cast<std::size_t>(q)]));
    }
    const std::vector<char>& restorable =
        cache != nullptr
            ? cache->flags(q, winners[static_cast<std::size_t>(q)])
            : fresh;
    ScenarioRows& r = rows[static_cast<std::size_t>(q)];
    // (10): residual + restorable tunnels cover b_f.
    r.cover.reserve(input.affected_flows(q).size());
    for (int f : input.affected_flows(q)) {
      solver::LinExpr expr;
      const auto& tunnels = input.tunnels()[static_cast<std::size_t>(f)];
      for (std::size_t ti = 0; ti < tunnels.size(); ++ti) {
        const int flat = input.tunnel_index(f, static_cast<int>(ti));
        if (input.tunnel_alive(f, static_cast<int>(ti), q) ||
            restorable[static_cast<std::size_t>(flat)]) {
          expr.add_term(vars.a[static_cast<std::size_t>(f)][ti], 1.0);
        }
      }
      expr -= solver::LinExpr(vars.b[static_cast<std::size_t>(f)]);
      r.cover.push_back(std::move(expr));
    }
    // (11): restorable tunnels fit within restored capacity r*.
    r.link_load.resize(tickets.failed_links.size());
    for (std::size_t li = 0; li < tickets.failed_links.size(); ++li) {
      for (const auto& lt : input.tunnels_on_link(tickets.failed_links[li])) {
        if (restorable[static_cast<std::size_t>(lt.flat)]) {
          r.link_load[li].add_term(
              vars.a[static_cast<std::size_t>(lt.flow)]
                    [static_cast<std::size_t>(lt.ti)],
              1.0);
        }
      }
    }
  });
  for (int q = 0; q < Q; ++q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    const auto& ticket = ticket_or_naive(
        prepared, naive, q, winners[static_cast<std::size_t>(q)]);
    ScenarioRows& r = rows[static_cast<std::size_t>(q)];
    for (auto& expr : r.cover) {
      model.add_constr(expr, solver::Sense::kGe, 0.0);
    }
    for (std::size_t li = 0; li < tickets.failed_links.size(); ++li) {
      if (!r.link_load[li].terms().empty()) {
        model.add_constr(r.link_load[li], solver::Sense::kLe,
                         ticket.gbps[li]);
      }
    }
  }
}

// Phase II build + solve + solution extraction.
TeSolution phase2(const TeInput& input, const ArrowPrepared& prepared,
                  const std::vector<ticket::LotteryTicket>& naive,
                  const std::vector<int>& winners, const char* scheme,
                  double extra_seconds,
                  const RestorabilityCache* cache, util::ThreadPool& pool) {
  const int Q = input.num_scenarios();
  Phase2Model p2;
  build_phase2(input, prepared, naive, winners, cache, pool, &p2);
  solver::Model& model = p2.model;
  BaseVars& vars = p2.vars;

  const auto t0 = Clock::now();
  OBS_SPAN("phase2_solve");
  const auto res = model.solve();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count() + extra_seconds;
  TeSolution sol = extract_solution(model, input, vars, scheme, res, seconds);
  sol.winner = winners;
  sol.restored.resize(static_cast<std::size_t>(Q));
  for (int q = 0; q < Q; ++q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    const auto& ticket = ticket_or_naive(prepared, naive, q,
                                         winners[static_cast<std::size_t>(q)]);
    for (std::size_t li = 0; li < tickets.failed_links.size(); ++li) {
      sol.restored[static_cast<std::size_t>(q)][tickets.failed_links[li]] =
          ticket.gbps[li];
    }
  }
  return sol;
}

struct SlackGroup {
  std::vector<solver::VarId> dp, dm;  // parallel to failed_links
};

struct Phase1Model {
  solver::Model model;
  BaseVars vars;
  std::vector<std::vector<SlackGroup>> slack;  // [q][z]
};

// Builds the Phase I LP (Table 2). Union restorability flags come from
// `cache` (required) and the per-scenario cover + link-load expressions are
// generated in parallel on `pool` into per-q slots, then appended serially
// in fixed q order — the flags are a pure function of the inputs and each
// body writes only its own slot, so variable order, row order and row
// contents are bit-identical at any thread count.
void build_phase1(const TeInput& input, const ArrowPrepared& prepared,
                  const std::vector<ticket::LotteryTicket>& naive,
                  const ArrowParams& params, util::ThreadPool& pool,
                  const RestorabilityCache* cache, Phase1Model* out) {
  OBS_SPAN("phase1_build");
  ARROW_CHECK(cache != nullptr, "build_phase1 requires a restorability cache");
  const int Q = input.num_scenarios();
  solver::Model& model = out->model;
  out->vars = add_base(model, input);
  const BaseVars& vars = out->vars;
  out->slack.assign(static_cast<std::size_t>(Q), {});

  struct ScenarioRows {
    std::vector<solver::LinExpr> cover;      // per affected flow of q
    std::vector<solver::LinExpr> link_load;  // per failed link of q
  };
  std::vector<ScenarioRows> rows(static_cast<std::size_t>(Q));
  pool.parallel_for(0, Q, [&](int q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    const auto& restorable_any = cache->union_flags(q);
    ScenarioRows& r = rows[static_cast<std::size_t>(q)];
    // (4): residual + restorable (under the best candidate) tunnels cover
    // b_f. Constraint (4) uses the union across tickets: Phase I plans
    // against the restoration the *winning* ticket will provide, and the
    // per-ticket slack rows (5) measure how far each candidate is from
    // supporting that plan. (A per-ticket hard (4) would make throughput
    // fall as |Z| grows, contradicting Fig. 14.)
    r.cover.reserve(input.affected_flows(q).size());
    for (int f : input.affected_flows(q)) {
      solver::LinExpr expr;
      const auto& tunnels = input.tunnels()[static_cast<std::size_t>(f)];
      for (std::size_t ti = 0; ti < tunnels.size(); ++ti) {
        const int flat = input.tunnel_index(f, static_cast<int>(ti));
        if (input.tunnel_alive(f, static_cast<int>(ti), q) ||
            restorable_any[static_cast<std::size_t>(flat)]) {
          expr.add_term(vars.a[static_cast<std::size_t>(f)][ti], 1.0);
        }
      }
      expr -= solver::LinExpr(vars.b[static_cast<std::size_t>(f)]);
      r.cover.push_back(std::move(expr));
    }
    // Shared load expressions: allocation of union-restorable tunnels
    // crossing each failed link. Under a candidate ticket z, whatever part
    // of this load exceeds r_e^{z,q} must spill into the slack Delta.
    r.link_load.resize(tickets.failed_links.size());
    for (std::size_t li = 0; li < tickets.failed_links.size(); ++li) {
      for (const auto& lt : input.tunnels_on_link(tickets.failed_links[li])) {
        if (restorable_any[static_cast<std::size_t>(lt.flat)]) {
          r.link_load[li].add_term(
              vars.a[static_cast<std::size_t>(lt.flow)]
                    [static_cast<std::size_t>(lt.ti)],
              1.0);
        }
      }
    }
  });
  // Serial append in q order: slack variables and rows land in exactly the
  // positions an all-serial build gives them.
  //
  // (5) with slacks per candidate ticket. The ReLU penalty on dp makes the
  // LP set dp = max(0, load - r) exactly, so after the solve dp measures
  // each ticket's unsupported allocation. The M^{z,q} = alpha * sum_e r
  // budget of constraint (6) is enforced during winner post-processing
  // (a hard per-ticket budget row would let one bad candidate render the
  // whole Phase I infeasible under the shared allocation).
  for (int q = 0; q < Q; ++q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    const int Z = std::max<int>(1, static_cast<int>(tickets.tickets.size()));
    out->slack[static_cast<std::size_t>(q)].resize(static_cast<std::size_t>(Z));
    for (const auto& expr : rows[static_cast<std::size_t>(q)].cover) {
      model.add_constr(expr, solver::Sense::kGe, 0.0);
    }
    for (int z = 0; z < Z; ++z) {
      const auto& ticket = ticket_or_naive(
          prepared, naive, q, tickets.tickets.empty() ? -1 : z);
      auto& group =
          out->slack[static_cast<std::size_t>(q)][static_cast<std::size_t>(z)];
      for (std::size_t li = 0; li < tickets.failed_links.size(); ++li) {
        const double r = ticket.gbps[li];
        const auto dp = model.add_var(0.0, solver::kInf, -params.slack_penalty);
        const auto dm = model.add_var(0.0, solver::kInf, 0.0);
        group.dp.push_back(dp);
        group.dm.push_back(dm);
        solver::LinExpr row = rows[static_cast<std::size_t>(q)].link_load[li];
        row.add_term(dp, -1.0);
        row.add_term(dm, 1.0);
        model.add_constr(row, solver::Sense::kLe, r);
      }
    }
  }
}

struct IlpModel {
  solver::Model model;
  BaseVars vars;
  std::vector<std::vector<solver::VarId>> select;  // [q][z]
};

// Builds the exact selection ILP (Table 9). Restorability flags come from
// `cache` (required), as in build_phase1. The per-(q, z) cover (31) and
// restored-capacity (32) expressions — minus their big-M selector terms,
// which reference variables that do not exist yet — are generated on `pool`
// into per-q slots, then appended serially in fixed (q, z) order with the
// binary selectors created in that same order. Selector var ids, row order
// and row contents are therefore deterministic (add_constr canonicalizes
// term order, so appending the big-M term last changes nothing), and the
// model is bit-identical at any thread count.
void build_ilp(const TeInput& input, const ArrowPrepared& prepared,
               const std::vector<ticket::LotteryTicket>& naive,
               const RestorabilityCache* cache, util::ThreadPool& pool,
               IlpModel* out) {
  ARROW_CHECK(cache != nullptr, "build_ilp requires a restorability cache");
  const int Q = input.num_scenarios();
  solver::Model& model = out->model;
  out->vars = add_base(model, input);
  const BaseVars& vars = out->vars;
  out->select.assign(static_cast<std::size_t>(Q), {});

  struct TicketRows {
    std::vector<solver::LinExpr> cover;  // per affected flow, sans -M x
    std::vector<solver::LinExpr> load;   // per failed link, sans +M x
  };
  std::vector<std::vector<TicketRows>> rows(static_cast<std::size_t>(Q));
  pool.parallel_for(0, Q, [&](int q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    const int Z = std::max<int>(1, static_cast<int>(tickets.tickets.size()));
    auto& per_z = rows[static_cast<std::size_t>(q)];
    per_z.resize(static_cast<std::size_t>(Z));
    for (int z = 0; z < Z; ++z) {
      const int zi = tickets.tickets.empty() ? -1 : z;
      const std::vector<char>& restorable = cache->flags(q, zi);
      TicketRows& r = per_z[static_cast<std::size_t>(z)];
      // (31): cover constraint relaxed unless ticket z is selected.
      r.cover.reserve(input.affected_flows(q).size());
      for (int f : input.affected_flows(q)) {
        solver::LinExpr expr;
        const auto& tunnels = input.tunnels()[static_cast<std::size_t>(f)];
        for (std::size_t ti = 0; ti < tunnels.size(); ++ti) {
          const int flat = input.tunnel_index(f, static_cast<int>(ti));
          if (input.tunnel_alive(f, static_cast<int>(ti), q) ||
              restorable[static_cast<std::size_t>(flat)]) {
            expr.add_term(vars.a[static_cast<std::size_t>(f)][ti], 1.0);
          }
        }
        expr -= solver::LinExpr(vars.b[static_cast<std::size_t>(f)]);
        r.cover.push_back(std::move(expr));
      }
      // (32): restored-capacity constraint relaxed unless selected.
      r.load.resize(tickets.failed_links.size());
      for (std::size_t li = 0; li < tickets.failed_links.size(); ++li) {
        for (const auto& lt :
             input.tunnels_on_link(tickets.failed_links[li])) {
          if (restorable[static_cast<std::size_t>(lt.flat)]) {
            r.load[li].add_term(vars.a[static_cast<std::size_t>(lt.flow)]
                                      [static_cast<std::size_t>(lt.ti)],
                                1.0);
          }
        }
      }
    }
  });
  for (int q = 0; q < Q; ++q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    const int Z = std::max<int>(1, static_cast<int>(tickets.tickets.size()));
    solver::LinExpr one;
    for (int z = 0; z < Z; ++z) {
      const auto x = model.add_binary(0.0);
      out->select[static_cast<std::size_t>(q)].push_back(x);
      one.add_term(x, 1.0);
      const int zi = tickets.tickets.empty() ? -1 : z;
      const auto& ticket = ticket_or_naive(prepared, naive, q, zi);
      TicketRows& r =
          rows[static_cast<std::size_t>(q)][static_cast<std::size_t>(z)];
      std::size_t ci = 0;
      for (int f : input.affected_flows(q)) {
        const double big_m =
            input.flows()[static_cast<std::size_t>(f)].demand_gbps;
        solver::LinExpr expr = std::move(r.cover[ci++]);
        expr.add_term(x, -big_m);
        model.add_constr(expr, solver::Sense::kGe, -big_m);
      }
      for (std::size_t li = 0; li < tickets.failed_links.size(); ++li) {
        const topo::IpLinkId e = tickets.failed_links[li];
        const double big_m =
            input.net().ip_links[static_cast<std::size_t>(e)].capacity_gbps();
        solver::LinExpr load = std::move(r.load[li]);
        load.add_term(x, big_m);
        model.add_constr(load, solver::Sense::kLe, ticket.gbps[li] + big_m);
      }
    }
    model.add_constr(one, solver::Sense::kEq, 1.0);  // (33)
  }
}

// ---- Phase I decomposition helpers -----------------------------------------

// Warm-start tag for the decomposition's master LP. The tag is nonzero, so
// master bases live in their own keyspace and can never displace — or be
// displaced by — the untagged bases of the monolithic Phase I / Phase II
// chain. That isolation is what keeps sweep output byte-identical
// decomposition on vs off: the Phase II solves see exactly the same
// warm-start chain either way.
constexpr std::uint64_t kMasterBasisTag = 0x41525257u;  // "ARRW"

std::vector<std::vector<double>> extract_alloc(solver::Model& model,
                                               const BaseVars& vars) {
  std::vector<std::vector<double>> alloc(vars.a.size());
  for (std::size_t f = 0; f < vars.a.size(); ++f) {
    alloc[f].reserve(vars.a[f].size());
    for (const auto& v : vars.a[f]) alloc[f].push_back(model.value(v));
  }
  return alloc;
}

// Union-restorable allocation crossing each failed link of scenario q, in
// the fixed tunnels_on_link order — the one summation order both Phase I
// paths share, so identical allocations give bit-identical loads.
std::vector<double> scenario_link_loads(
    const TeInput& input, const RestorabilityCache& cache, int q,
    const ticket::TicketSet& tickets,
    const std::vector<std::vector<double>>& alloc) {
  const auto& any = cache.union_flags(q);
  std::vector<double> loads(tickets.failed_links.size(), 0.0);
  for (std::size_t li = 0; li < tickets.failed_links.size(); ++li) {
    double load = 0.0;
    for (const auto& lt : input.tunnels_on_link(tickets.failed_links[li])) {
      if (any[static_cast<std::size_t>(lt.flat)]) {
        load += alloc[static_cast<std::size_t>(lt.flow)]
                     [static_cast<std::size_t>(lt.ti)];
      }
    }
    loads[li] = load;
  }
  return loads;
}

// Winner per scenario from a Phase I allocation, fanned out on `pool` (each
// body writes only its own slot; the selection itself is order-independent,
// see select_phase1_winner).
std::vector<int> pick_winners(const TeInput& input,
                              const ArrowPrepared& prepared,
                              const RestorabilityCache& cache,
                              const ArrowParams& params,
                              const std::vector<std::vector<double>>& alloc,
                              util::ThreadPool& pool) {
  const int Q = input.num_scenarios();
  std::vector<int> winners(static_cast<std::size_t>(Q), -1);
  pool.parallel_for(0, Q, [&](int q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    if (tickets.tickets.empty()) return;  // fall back to naive (-1)
    const auto totals = phase1_slack_totals(input, prepared, cache, q, alloc);
    std::vector<double> gbps, budgets;
    gbps.reserve(tickets.tickets.size());
    budgets.reserve(tickets.tickets.size());
    for (const auto& t : tickets.tickets) {
      gbps.push_back(t.total_gbps());
      budgets.push_back(params.alpha * t.total_gbps());
    }
    winners[static_cast<std::size_t>(q)] =
        select_phase1_winner(totals, gbps, budgets);
  });
  return winners;
}

}  // namespace

std::vector<char> restorable_flags(const TeInput& input, int q,
                                   const ticket::TicketSet& tickets,
                                   const ticket::LotteryTicket& ticket) {
  std::vector<char> flags(static_cast<std::size_t>(input.total_tunnels()), 0);
  std::map<topo::IpLinkId, double> restored;
  for (std::size_t i = 0; i < tickets.failed_links.size(); ++i) {
    restored[tickets.failed_links[i]] = ticket.gbps[i];
  }
  for (int f = 0; f < input.num_flows(); ++f) {
    const auto& tunnels = input.tunnels()[static_cast<std::size_t>(f)];
    for (std::size_t ti = 0; ti < tunnels.size(); ++ti) {
      if (input.tunnel_alive(f, static_cast<int>(ti), q)) continue;
      bool ok = true;
      for (int e : tunnels[ti].links) {
        const auto it = restored.find(e);
        if (it != restored.end() && it->second <= 1e-9) {
          ok = false;
          break;
        }
        // A failed link not in the ticket's list cannot happen: the ticket
        // covers exactly the scenario's failed links. A link absent from
        // `restored` is healthy in q.
        if (it == restored.end()) {
          bool failed = false;
          for (int fe : input.failed_links(q)) {
            if (fe == e) {
              failed = true;
              break;
            }
          }
          if (failed) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        flags[static_cast<std::size_t>(input.tunnel_index(f, static_cast<int>(ti)))] = 1;
      }
    }
  }
  return flags;
}

RestorabilityCache::RestorabilityCache(const TeInput& input,
                                       const ArrowPrepared& prepared,
                                       util::ThreadPool& pool) {
  const int Q = input.num_scenarios();
  ARROW_CHECK(static_cast<int>(prepared.tickets.size()) == Q,
              "prepared/scenario mismatch");
  naive_tickets_ = make_naive_tickets(prepared);
  per_scenario_.resize(static_cast<std::size_t>(Q));
  // Each body writes only its own scenario slot; the flags are a pure
  // function of (input, prepared, q), so the cache is thread-count invariant.
  pool.parallel_for(0, Q, [&](int q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    PerScenario& ps = per_scenario_[static_cast<std::size_t>(q)];
    ps.naive = restorable_flags(input, q, tickets,
                                naive_tickets_[static_cast<std::size_t>(q)]);
    ps.per_ticket.resize(tickets.tickets.size());
    for (std::size_t z = 0; z < tickets.tickets.size(); ++z) {
      ps.per_ticket[z] =
          restorable_flags(input, q, tickets, tickets.tickets[z]);
    }
    if (ps.per_ticket.empty()) {
      ps.any = ps.naive;  // Phase I's sole candidate is the naive plan
    } else {
      ps.any.assign(static_cast<std::size_t>(input.total_tunnels()), 0);
      for (const auto& flags : ps.per_ticket) {
        for (std::size_t i = 0; i < ps.any.size(); ++i) ps.any[i] |= flags[i];
      }
    }
  });
}

RestorabilityCache::RestorabilityCache(const TeInput& input,
                                       const ArrowPrepared& prepared)
    : RestorabilityCache(input, prepared, util::global_pool()) {}

const std::vector<char>& RestorabilityCache::flags(int q, int z) const {
  const PerScenario& ps = per_scenario_[static_cast<std::size_t>(q)];
  if (z >= 0 && z < static_cast<int>(ps.per_ticket.size())) {
    return ps.per_ticket[static_cast<std::size_t>(z)];
  }
  return ps.naive;
}

const std::vector<char>& RestorabilityCache::union_flags(int q) const {
  return per_scenario_[static_cast<std::size_t>(q)].any;
}

bool tunnel_restorable(const TeInput& input, int f, int ti, int q,
                       const ticket::TicketSet& tickets,
                       const ticket::LotteryTicket& ticket) {
  const auto flags = restorable_flags(input, q, tickets, ticket);
  return flags[static_cast<std::size_t>(input.tunnel_index(f, ti))] != 0;
}

void prepare_arrow_scenario(const TeInput& input, int q,
                            const ArrowParams& params, util::Rng& rng,
                            optical::RwaResult* rwa,
                            ticket::TicketSet* tickets_out) {
  OBS_SPAN("rwa_scenario");
  const auto& scenario = input.scenarios()[static_cast<std::size_t>(q)];
  *rwa = optical::solve_rwa(input.net(), scenario.cuts, params.rwa);
  auto tickets = ticket::generate_tickets(input.net(), scenario.cuts, *rwa,
                                          params.tickets, rng);
  // The RWA's own (floored) restoration plan is always a candidate — it is
  // what |Z| = 1 degenerates to (ARROW-Naive, Fig. 14) — and sits first so
  // slack ties resolve to it.
  auto base = ticket::naive_ticket(*rwa);
  bool have_base = !params.include_naive_candidate;
  for (const auto& t : tickets.tickets) {
    if (t.waves == base.waves) {
      have_base = true;
      break;
    }
  }
  if (!have_base && !base.waves.empty()) {
    tickets.tickets.insert(tickets.tickets.begin(), std::move(base));
    if (static_cast<int>(tickets.tickets.size()) > params.tickets.num_tickets &&
        tickets.tickets.size() > 1) {
      tickets.tickets.pop_back();
    }
  }
  *tickets_out = std::move(tickets);
}

ArrowPrepared prepare_arrow(const TeInput& input, const ArrowParams& params,
                            util::Rng& rng, util::ThreadPool& pool) {
  OBS_SPAN("prepare_arrow");
  ArrowPrepared prepared;
  const int Q = static_cast<int>(input.scenarios().size());
  prepared.rwa.resize(static_cast<std::size_t>(Q));
  prepared.tickets.resize(static_cast<std::size_t>(Q));
  // One draw seeds every scenario stream; each body writes only its own q
  // slot, so the fan-out is race-free and thread-count independent.
  const std::uint64_t base = rng.next_u64();
  pool.parallel_for(0, Q, [&](int q) {
    util::Rng stream(
        util::Rng::stream_seed(base, static_cast<std::uint64_t>(q)));
    prepare_arrow_scenario(input, q, params, stream,
                           &prepared.rwa[static_cast<std::size_t>(q)],
                           &prepared.tickets[static_cast<std::size_t>(q)]);
  });
  return prepared;
}

ArrowPrepared prepare_arrow(const TeInput& input, const ArrowParams& params,
                            util::Rng& rng) {
  return prepare_arrow(input, params, rng, util::global_pool());
}

Phase1BuildStats build_phase1_model(const TeInput& input,
                                    const ArrowPrepared& prepared,
                                    const ArrowParams& params,
                                    util::ThreadPool& pool,
                                    const RestorabilityCache* cache) {
  const auto t0 = Clock::now();
  const auto naive = make_naive_tickets(prepared);
  std::optional<RestorabilityCache> local;
  if (cache == nullptr) {
    local.emplace(input, prepared, pool);
    cache = &*local;
  }
  Phase1Model p1;
  build_phase1(input, prepared, naive, params, pool, cache, &p1);
  Phase1BuildStats stats;
  stats.build_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  stats.vars = p1.model.num_vars();
  stats.rows = p1.model.num_constrs();
  stats.model_fingerprint = p1.model.fingerprint();
  return stats;
}

int select_phase1_winner(const std::vector<double>& slack_totals,
                         const std::vector<double>& ticket_gbps,
                         const std::vector<double>& budgets) {
  const std::size_t n = slack_totals.size();
  ARROW_CHECK(ticket_gbps.size() == n && budgets.size() == n,
              "winner-selection input size mismatch");
  if (n == 0) return -1;
  // Candidate set: tickets within the alpha budget of constraint (6) when
  // any exist, everyone otherwise. Both passes below compare against set
  // extrema, never an incumbent, so no non-transitive tolerance chain can
  // make the answer depend on scan order.
  bool any_in_budget = false;
  for (std::size_t z = 0; z < n; ++z) {
    if (slack_totals[z] <= budgets[z]) {
      any_in_budget = true;
      break;
    }
  }
  const auto in_set = [&](std::size_t z) {
    return !any_in_budget || slack_totals[z] <= budgets[z];
  };
  double min_slack = solver::kInf;
  for (std::size_t z = 0; z < n; ++z) {
    if (in_set(z)) min_slack = std::min(min_slack, slack_totals[z]);
  }
  const double slack_cut = min_slack + 1e-9;
  double best_gbps = -solver::kInf;
  for (std::size_t z = 0; z < n; ++z) {
    if (in_set(z) && slack_totals[z] <= slack_cut) {
      best_gbps = std::max(best_gbps, ticket_gbps[z]);
    }
  }
  for (std::size_t z = 0; z < n; ++z) {
    if (in_set(z) && slack_totals[z] <= slack_cut &&
        ticket_gbps[z] >= best_gbps - 1e-9) {
      return static_cast<int>(z);
    }
  }
  return -1;  // unreachable: the min-slack candidate passes every filter
}

std::vector<double> phase1_slack_totals(
    const TeInput& input, const ArrowPrepared& prepared,
    const RestorabilityCache& cache, int q,
    const std::vector<std::vector<double>>& alloc) {
  const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
  const auto loads = scenario_link_loads(input, cache, q, tickets, alloc);
  std::vector<double> totals;
  totals.reserve(tickets.tickets.size());
  for (const auto& ticket : tickets.tickets) {
    double total = 0.0;
    for (std::size_t li = 0; li < loads.size(); ++li) {
      total += std::max(0.0, loads[li] - ticket.gbps[li]);
    }
    totals.push_back(total);
  }
  return totals;
}

Phase1Result solve_phase1(const TeInput& input, const ArrowPrepared& prepared,
                          const ArrowParams& params, util::ThreadPool& pool,
                          const RestorabilityCache* cache) {
  if (params.decomposition.enabled) {
    return solve_phase1_decomposed(input, prepared, params, pool, cache);
  }
  const int Q = input.num_scenarios();
  ARROW_CHECK(static_cast<int>(prepared.tickets.size()) == Q,
              "prepared/scenario mismatch");
  std::optional<RestorabilityCache> local;
  if (cache == nullptr) {
    local.emplace(input, prepared, pool);
    cache = &*local;
  }
  Phase1Model p1;
  build_phase1(input, prepared, cache->naive_tickets(), params, pool, cache,
               &p1);
  const auto t0 = Clock::now();
  solver::SolveResult res;
  {
    OBS_SPAN("phase1_solve");
    res = p1.model.solve();
  }
  Phase1Result out;
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.objective = res.objective;
  out += res;
  if (!res.optimal()) return out;
  out.optimal = true;
  const auto alloc = extract_alloc(p1.model, p1.vars);
  out.winners = pick_winners(input, prepared, *cache, params, alloc, pool);
  return out;
}

Phase1Result solve_phase1_decomposed(const TeInput& input,
                                     const ArrowPrepared& prepared,
                                     const ArrowParams& params,
                                     util::ThreadPool& pool,
                                     const RestorabilityCache* cache) {
  OBS_SPAN("phase1_decomposed");
  const int Q = input.num_scenarios();
  ARROW_CHECK(static_cast<int>(prepared.tickets.size()) == Q,
              "prepared/scenario mismatch");
  std::optional<RestorabilityCache> local;
  if (cache == nullptr) {
    local.emplace(input, prepared, pool);
    cache = &*local;
  }
  const auto& naive = cache->naive_tickets();

  Phase1Result out;
  out.decomposed = true;
  const auto t0 = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // Master: shared allocation plus one penalty variable theta_q >= f_q(a)
  // per scenario, where f_q is the scenario's true slack total
  // sum_z sum_li max(0, load_li - r_li^z). Scenario rows start absent and are
  // priced in below.
  solver::Model master;
  const BaseVars vars = add_base(master, input);
  std::vector<solver::VarId> theta;
  theta.reserve(static_cast<std::size_t>(Q));
  for (int q = 0; q < Q; ++q) {
    theta.push_back(master.add_var(0.0, solver::kInf, -params.slack_penalty));
  }
  // cover_present[q][i]: cover row (4) for affected flow i of scenario q is
  // already in the master. Mutated only in the serial append section.
  std::vector<std::vector<char>> cover_present(static_cast<std::size_t>(Q));
  for (int q = 0; q < Q; ++q) {
    cover_present[static_cast<std::size_t>(q)].assign(
        input.affected_flows(q).size(), 0);
  }

  struct PerScenario {
    std::vector<std::size_t> new_cover_idx;       // into affected_flows(q)
    std::vector<solver::LinExpr> new_cover;       // parallel to new_cover_idx
    bool add_cut = false;
    solver::LinExpr cut;                          // theta_q - sum cnt*load
    double cut_rhs = 0.0;
  };

  std::vector<std::vector<double>> alloc;
  bool converged = false;
  while (out.decomposition_rounds < params.decomposition.max_rounds) {
    solver::SolveResult mres;
    {
      solver::ScopedBasisTag tag(kMasterBasisTag);
      OBS_SPAN("phase1_master_solve");
      mres = master.solve();
    }
    ++out.decomposition_rounds;
    out.objective = mres.objective;
    out += mres;
    if (!mres.optimal()) {
      out.seconds = elapsed();
      return out;  // optimal stays false: same contract as the monolithic LP
    }

    alloc = extract_alloc(master, vars);
    std::vector<double> bvals(vars.b.size());
    for (std::size_t f = 0; f < vars.b.size(); ++f) {
      bvals[f] = master.value(vars.b[f]);
    }
    std::vector<double> thetav(theta.size());
    for (std::size_t q = 0; q < theta.size(); ++q) {
      thetav[q] = master.value(theta[q]);
    }

    // Pricing fan-out: every decision below is a closed-form function of the
    // master solution extracted above, so the appended rows — and with them
    // the whole trajectory — are bit-identical at any thread count.
    std::vector<PerScenario> ps(static_cast<std::size_t>(Q));
    pool.parallel_for(0, Q, [&](int q) {
      const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
      const auto& any = cache->union_flags(q);
      PerScenario& s = ps[static_cast<std::size_t>(q)];

      // Violated cover rows (4), same union-restorable filter as
      // build_phase1.
      const auto& affected = input.affected_flows(q);
      const auto& present = cover_present[static_cast<std::size_t>(q)];
      for (std::size_t i = 0; i < affected.size(); ++i) {
        if (present[i]) continue;
        const int f = affected[i];
        const auto& tunnels = input.tunnels()[static_cast<std::size_t>(f)];
        double lhs = -bvals[static_cast<std::size_t>(f)];
        for (std::size_t ti = 0; ti < tunnels.size(); ++ti) {
          const int flat = input.tunnel_index(f, static_cast<int>(ti));
          if (input.tunnel_alive(f, static_cast<int>(ti), q) ||
              any[static_cast<std::size_t>(flat)]) {
            lhs += alloc[static_cast<std::size_t>(f)][ti];
          }
        }
        if (lhs < -1e-9) {
          solver::LinExpr expr;
          for (std::size_t ti = 0; ti < tunnels.size(); ++ti) {
            const int flat = input.tunnel_index(f, static_cast<int>(ti));
            if (input.tunnel_alive(f, static_cast<int>(ti), q) ||
                any[static_cast<std::size_t>(flat)]) {
              expr.add_term(vars.a[static_cast<std::size_t>(f)][ti], 1.0);
            }
          }
          expr -= solver::LinExpr(vars.b[static_cast<std::size_t>(f)]);
          s.new_cover_idx.push_back(i);
          s.new_cover.push_back(std::move(expr));
        }
      }

      const std::size_t L = tickets.failed_links.size();
      if (L == 0) return;  // f_q = 0 and theta_q >= 0: never violated
      const auto loads = scenario_link_loads(input, *cache, q, tickets, alloc);
      const int Z =
          std::max<int>(1, static_cast<int>(tickets.tickets.size()));

      // True penalty and, when theta_q undershoots it, the optimality cut
      //   theta_q - sum_li cnt_li * load_li(a) >= -sum_{active} r_li^z
      // with the active set {(z, li): load_li - r_li^z > 0} at the current
      // master point. A present cut's value at its own generating point
      // equals f_q, so gap > tolerance implies the cut is new — the loop
      // cannot stall.
      double true_penalty = 0.0;
      std::vector<int> cnt(L, 0);
      double cut_rhs = 0.0;
      for (int z = 0; z < Z; ++z) {
        const auto& ticket = ticket_or_naive(prepared, naive, q,
                                             tickets.tickets.empty() ? -1 : z);
        for (std::size_t li = 0; li < L; ++li) {
          if (loads[li] - ticket.gbps[li] > 0.0) {
            true_penalty += loads[li] - ticket.gbps[li];
            ++cnt[li];
            cut_rhs -= ticket.gbps[li];
          }
        }
      }
      if (true_penalty - thetav[static_cast<std::size_t>(q)] >
          params.decomposition.tolerance) {
        solver::LinExpr cut{theta[static_cast<std::size_t>(q)]};
        for (std::size_t li = 0; li < L; ++li) {
          if (cnt[li] == 0) continue;
          for (const auto& lt :
               input.tunnels_on_link(tickets.failed_links[li])) {
            if (any[static_cast<std::size_t>(lt.flat)]) {
              cut.add_term(vars.a[static_cast<std::size_t>(lt.flow)]
                                 [static_cast<std::size_t>(lt.ti)],
                           -static_cast<double>(cnt[li]));
            }
          }
        }
        s.add_cut = true;
        s.cut = std::move(cut);
        s.cut_rhs = cut_rhs;
      }
    });

    // Serial fixed-q-order row append.
    bool appended = false;
    for (int q = 0; q < Q; ++q) {
      const PerScenario& s = ps[static_cast<std::size_t>(q)];
      for (std::size_t i = 0; i < s.new_cover.size(); ++i) {
        master.add_constr(s.new_cover[i], solver::Sense::kGe, 0.0);
        cover_present[static_cast<std::size_t>(q)][s.new_cover_idx[i]] = 1;
        ++out.decomposition_cuts;
        appended = true;
      }
      if (s.add_cut) {
        master.add_constr(s.cut, solver::Sense::kGe, s.cut_rhs);
        ++out.decomposition_cuts;
        appended = true;
      }
    }
    if (!appended) {
      converged = true;
      break;
    }
  }
  out.seconds = elapsed();
  if (!converged) return out;  // max_rounds backstop hit: not solved

  out.optimal = true;
  out.winners = pick_winners(input, prepared, *cache, params, alloc, pool);

  static obs::Counter& rounds_total = obs::Registry::global().counter(
      "arrow_te_decomposition_rounds_total");
  static obs::Counter& cuts_total = obs::Registry::global().counter(
      "arrow_te_decomposition_cuts_total");
  rounds_total.add(static_cast<std::uint64_t>(out.decomposition_rounds));
  cuts_total.add(static_cast<std::uint64_t>(out.decomposition_cuts));
  return out;
}

TeSolution solve_arrow(const TeInput& input, const ArrowPrepared& prepared,
                       const ArrowParams& params, util::ThreadPool& pool,
                       const RestorabilityCache* cache) {
  const int Q = input.num_scenarios();
  ARROW_CHECK(static_cast<int>(prepared.tickets.size()) == Q,
              "prepared/scenario mismatch");
  // Build a private cache when the caller did not share one. The cache (and
  // the index) never change the model — only how fast it is assembled.
  std::optional<RestorabilityCache> local;
  if (cache == nullptr) {
    local.emplace(input, prepared, pool);
    cache = &*local;
  }

  // ---- Phase I (Table 2, monolithic or decomposed) + winner selection -----
  const Phase1Result p1 = solve_phase1(input, prepared, params, pool, cache);
  if (!p1.optimal) {
    TeSolution sol;
    sol.scheme = "ARROW";
    sol.solve_seconds = p1.seconds;
    sol += p1;
    return sol;
  }

  // ---- Phase II -----------------------------------------------------------
  TeSolution sol = phase2(input, prepared, cache->naive_tickets(), p1.winners,
                          "ARROW", p1.seconds, cache, pool);
  sol += p1;  // include Phase I's share
  return sol;
}

TeSolution solve_arrow(const TeInput& input, const ArrowPrepared& prepared,
                       const ArrowParams& params) {
  return solve_arrow(input, prepared, params, util::global_pool(), nullptr);
}

TeSolution solve_arrow_naive(const TeInput& input,
                             const ArrowPrepared& prepared,
                             const ArrowParams& /*params*/,
                             util::ThreadPool& pool,
                             const RestorabilityCache* cache) {
  const auto naive = make_naive_tickets(prepared);
  std::vector<int> winners(static_cast<std::size_t>(input.num_scenarios()), -1);
  return phase2(input, prepared, naive, winners, "ARROW-Naive", 0.0, cache,
                pool);
}

TeSolution solve_arrow_naive(const TeInput& input,
                             const ArrowPrepared& prepared,
                             const ArrowParams& params,
                             const RestorabilityCache* cache) {
  return solve_arrow_naive(input, prepared, params, util::global_pool(), cache);
}

TeSolution solve_arrow_with_winners(const TeInput& input,
                                    const ArrowPrepared& prepared,
                                    const std::vector<int>& winners,
                                    util::ThreadPool& pool,
                                    const RestorabilityCache* cache) {
  ARROW_CHECK(static_cast<int>(winners.size()) == input.num_scenarios(),
              "winner count mismatch");
  const auto naive = make_naive_tickets(prepared);
  return phase2(input, prepared, naive, winners, "ARROW-Fixed", 0.0, cache,
                pool);
}

TeSolution solve_arrow_with_winners(const TeInput& input,
                                    const ArrowPrepared& prepared,
                                    const std::vector<int>& winners,
                                    const RestorabilityCache* cache) {
  return solve_arrow_with_winners(input, prepared, winners, util::global_pool(),
                                  cache);
}

TeSolution solve_arrow_ilp(const TeInput& input, const ArrowPrepared& prepared,
                           const ArrowParams& /*params*/,
                           util::ThreadPool& pool,
                           const RestorabilityCache* cache) {
  const int Q = input.num_scenarios();
  const auto naive = make_naive_tickets(prepared);
  std::optional<RestorabilityCache> local;
  if (cache == nullptr) {
    local.emplace(input, prepared, pool);
    cache = &*local;
  }
  IlpModel ilp;
  build_ilp(input, prepared, naive, cache, pool, &ilp);
  solver::Model& model = ilp.model;
  BaseVars& vars = ilp.vars;
  std::vector<std::vector<solver::VarId>>& select = ilp.select;

  const auto t0 = Clock::now();
  const auto res = model.solve();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  TeSolution sol =
      extract_solution(model, input, vars, "ARROW-ILP", res, seconds);
  if (!sol.optimal) return sol;
  sol.winner.assign(static_cast<std::size_t>(Q), -1);
  sol.restored.resize(static_cast<std::size_t>(Q));
  for (int q = 0; q < Q; ++q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    for (std::size_t z = 0; z < select[static_cast<std::size_t>(q)].size(); ++z) {
      if (model.value(select[static_cast<std::size_t>(q)][z]) > 0.5) {
        sol.winner[static_cast<std::size_t>(q)] =
            tickets.tickets.empty() ? -1 : static_cast<int>(z);
        break;
      }
    }
    const auto& ticket = ticket_or_naive(prepared, naive, q,
                                         sol.winner[static_cast<std::size_t>(q)]);
    for (std::size_t li = 0; li < tickets.failed_links.size(); ++li) {
      sol.restored[static_cast<std::size_t>(q)][tickets.failed_links[li]] =
          ticket.gbps[li];
    }
  }
  return sol;
}

TeSolution solve_arrow_ilp(const TeInput& input, const ArrowPrepared& prepared,
                           const ArrowParams& params,
                           const RestorabilityCache* cache) {
  return solve_arrow_ilp(input, prepared, params, util::global_pool(), cache);
}

ModelBuildStats build_phase2_model(const TeInput& input,
                                   const ArrowPrepared& prepared,
                                   const std::vector<int>& winners,
                                   const ArrowParams& /*params*/,
                                   util::ThreadPool& pool,
                                   const RestorabilityCache* cache) {
  ARROW_CHECK(static_cast<int>(winners.size()) == input.num_scenarios(),
              "winner count mismatch");
  const auto t0 = Clock::now();
  const auto naive = make_naive_tickets(prepared);
  std::optional<RestorabilityCache> local;
  if (cache == nullptr) {
    local.emplace(input, prepared, pool);
    cache = &*local;
  }
  Phase2Model p2;
  build_phase2(input, prepared, naive, winners, cache, pool, &p2);
  ModelBuildStats stats;
  stats.build_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  stats.vars = p2.model.num_vars();
  stats.rows = p2.model.num_constrs();
  stats.model_fingerprint = p2.model.fingerprint();
  return stats;
}

ModelBuildStats build_arrow_ilp_model(const TeInput& input,
                                      const ArrowPrepared& prepared,
                                      const ArrowParams& /*params*/,
                                      util::ThreadPool& pool,
                                      const RestorabilityCache* cache) {
  OBS_SPAN("ilp_build");
  const auto t0 = Clock::now();
  const auto naive = make_naive_tickets(prepared);
  std::optional<RestorabilityCache> local;
  if (cache == nullptr) {
    local.emplace(input, prepared, pool);
    cache = &*local;
  }
  IlpModel ilp;
  build_ilp(input, prepared, naive, cache, pool, &ilp);
  ModelBuildStats stats;
  stats.build_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  stats.vars = ilp.model.num_vars();
  stats.rows = ilp.model.num_constrs();
  stats.model_fingerprint = ilp.model.fingerprint();
  return stats;
}

}  // namespace arrow::te

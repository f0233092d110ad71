#include "te/arrow.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/model.h"
#include "te/basic.h"
#include "util/check.h"

namespace arrow::te {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<ticket::LotteryTicket> make_naive_tickets(const ArrowPrepared& prepared) {
  std::vector<ticket::LotteryTicket> out;
  out.reserve(prepared.rwa.size());
  for (const auto& rwa : prepared.rwa) {
    out.push_back(ticket::naive_ticket(rwa));
  }
  return out;
}

// One ARROW model — Phase I, Phase II or the exact ILP — and the base
// variables add_base created in it.
struct ArrowModel {
  solver::Model model;
  BaseVars vars;
};

}  // namespace

const ticket::LotteryTicket& ticket_or_naive(const ArrowPrepared& prepared,
                                             const RestorabilityCache& cache,
                                             int q, int z) {
  const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)].tickets;
  if (z >= 0 && z < static_cast<int>(tickets.size())) {
    return tickets[static_cast<std::size_t>(z)];
  }
  return cache.naive_ticket(q);
}

// A TE LP kept in a RestorabilityCache slot between solves (see
// RestorabilityCache in arrow.h).
struct ResidentLp {
  // What the build read beyond the cache's structure: the slack penalty for
  // Phase I, the winner per scenario for Phase II.
  struct Key {
    double slack_penalty = 0.0;
    std::vector<int> winners;
    bool operator==(const Key&) const = default;
  };
  Key key;
  ArrowModel lp;

  static RestorabilityCache::Slot& phase1(const RestorabilityCache& cache) {
    return cache.phase1_;
  }
  static RestorabilityCache::Slot& phase2(const RestorabilityCache& cache) {
    return cache.phase2_;
  }

  // Takes the LP parked in `slot`: rebound to `input` when it was built
  // under `key`, else replaced by build(&lp). The slot stays empty until
  // park(), so a concurrent solve on it builds its own instead of waiting.
  template <typename Build>
  static std::unique_ptr<ResidentLp> check_out(RestorabilityCache::Slot& slot,
                                               Key key, const TeInput& input,
                                               Build build) {
    std::unique_ptr<ResidentLp> out;
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      out = std::move(slot.lp);
    }
    if (out != nullptr && out->key == key) {
      out->bind(input);
      return out;
    }
    out = std::make_unique<ResidentLp>();
    out->key = std::move(key);
    build(&out->lp);
    return out;
  }

  static void park(RestorabilityCache::Slot& slot,
                   std::unique_ptr<ResidentLp> lp) {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.lp = std::move(lp);
  }

  // Rewrites what add_base read from the input beyond its structure: the
  // admission bounds b_f <= d_f and the capacity rows' rhs.
  void bind(const TeInput& input) {
    const BaseVars& vars = lp.vars;
    ARROW_CHECK(vars.b.size() == static_cast<std::size_t>(input.num_flows()),
                "resident TE LP built for another flow set");
    for (std::size_t f = 0; f < vars.b.size(); ++f) {
      lp.model.set_bounds(vars.b[f], 0.0, input.flows()[f].demand_gbps);
    }
    const auto& links = input.net().ip_links;
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (vars.capacity_row[i] >= 0) {
        lp.model.set_rhs(vars.capacity_row[i], links[i].capacity_gbps());
      }
    }
  }
};

namespace {

// Cover row of affected flow f in scenario q: -b_f plus a_{f,t} of every
// tunnel alive in q or restorable under `flags`, so that "row >= 0" says
// residual and restored tunnels carry b_f. It is (4) of Phase I, (10) of
// Phase II and (31) of the ILP before its selector term; only the flags
// differ between them.
solver::LinExpr cover_row(const TeInput& input, const BaseVars& vars, int q,
                          const std::vector<char>& flags, int f) {
  solver::LinExpr row;
  row.add_term(vars.b[static_cast<std::size_t>(f)], -1.0);
  const auto& tunnels = input.tunnels()[static_cast<std::size_t>(f)];
  for (std::size_t ti = 0; ti < tunnels.size(); ++ti) {
    const int flat = input.tunnel_index(f, static_cast<int>(ti));
    if (input.tunnel_alive(f, static_cast<int>(ti), q) ||
        flags[static_cast<std::size_t>(flat)]) {
      row.add_term(vars.a[static_cast<std::size_t>(f)][ti], 1.0);
    }
  }
  return row;
}

// Load on failed link e from the tunnels restorable under `flags`, in
// tunnels_on_link order: the left side of (5), (11) and (32), and of the
// decomposition master's optimality cuts.
solver::LinExpr link_load_row(const TeInput& input, const BaseVars& vars,
                              const std::vector<char>& flags,
                              topo::IpLinkId e) {
  solver::LinExpr row;
  for (const auto& lt : input.tunnels_on_link(e)) {
    if (flags[static_cast<std::size_t>(lt.flat)]) {
      row.add_term(vars.a[static_cast<std::size_t>(lt.flow)]
                         [static_cast<std::size_t>(lt.ti)],
                   1.0);
    }
  }
  return row;
}

// Builds the Phase I LP (Table 2) on the union restorability flags. Cover
// row (4) uses the union across tickets: Phase I plans against the
// restoration the *winning* ticket will provide, and the per-ticket slack
// rows (5) measure how far each candidate is from supporting that plan. (A
// per-ticket hard (4) would make throughput fall as |Z| grows, contradicting
// Fig. 14.)
void build_phase1(const TeInput& input, const ArrowPrepared& prepared,
                  const ArrowParams& params, const RestorabilityCache& cache,
                  ArrowModel* out) {
  OBS_SPAN("phase1_build");
  const int Q = input.num_scenarios();
  solver::Model& model = out->model;
  out->vars = add_base(model, input);
  // (5) with slacks per candidate ticket: whatever part of the shared load
  // exceeds r_e^{z,q} must spill into dp. The ReLU penalty on dp makes the
  // LP set dp = max(0, load - r) exactly, so after the solve dp measures
  // each ticket's unsupported allocation. The M^{z,q} = alpha * sum_e r
  // budget of constraint (6) is enforced during winner post-processing
  // (a hard per-ticket budget row would let one bad candidate render the
  // whole Phase I infeasible under the shared allocation).
  for (int q = 0; q < Q; ++q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    const auto& flags = cache.union_flags(q);
    for (int f : input.affected_flows(q)) {
      model.add_constr(cover_row(input, out->vars, q, flags, f),
                       solver::Sense::kGe, 0.0);
    }
    std::vector<solver::LinExpr> loads;
    loads.reserve(tickets.failed_links.size());
    for (topo::IpLinkId e : tickets.failed_links) {
      loads.push_back(link_load_row(input, out->vars, flags, e));
    }
    const int Z = std::max<int>(1, static_cast<int>(tickets.tickets.size()));
    for (int z = 0; z < Z; ++z) {
      const auto& ticket = ticket_or_naive(prepared, cache, q, z);
      for (std::size_t li = 0; li < loads.size(); ++li) {
        const auto dp = model.add_var(0.0, solver::kInf, -params.slack_penalty);
        const auto dm = model.add_var(0.0, solver::kInf, 0.0);
        solver::LinExpr row = loads[li];
        row.add_term(dp, -1.0);
        row.add_term(dm, 1.0);
        model.add_constr(row, solver::Sense::kLe, ticket.gbps[li]);
      }
    }
  }
}

// Builds the Phase II LP (Table 3) against a chosen ticket per scenario
// (z = -1 selects the naive RWA ticket): cover rows (10), and load rows (11)
// within the winner's restored capacity r*.
void build_phase2(const TeInput& input, const ArrowPrepared& prepared,
                  const std::vector<int>& winners,
                  const RestorabilityCache& cache, ArrowModel* out) {
  OBS_SPAN("phase2_build");
  const int Q = input.num_scenarios();
  solver::Model& model = out->model;
  out->vars = add_base(model, input);
  for (int q = 0; q < Q; ++q) {
    const int z = winners[static_cast<std::size_t>(q)];
    const auto& failed =
        prepared.tickets[static_cast<std::size_t>(q)].failed_links;
    const auto& ticket = ticket_or_naive(prepared, cache, q, z);
    const auto& flags = cache.flags(q, z);
    for (int f : input.affected_flows(q)) {
      model.add_constr(cover_row(input, out->vars, q, flags, f),
                       solver::Sense::kGe, 0.0);
    }
    for (std::size_t li = 0; li < failed.size(); ++li) {
      const solver::LinExpr load =
          link_load_row(input, out->vars, flags, failed[li]);
      if (!load.terms().empty()) {
        model.add_constr(load, solver::Sense::kLe, ticket.gbps[li]);
      }
    }
  }
}

// Builds the exact selection ILP (Table 9) and returns its binary selectors
// [q][z]: per candidate, its selector, then its cover rows (31) and load
// rows (32), each with the selector's big-M term.
std::vector<std::vector<solver::VarId>> build_ilp(
    const TeInput& input, const ArrowPrepared& prepared,
    const RestorabilityCache& cache, ArrowModel* out) {
  const int Q = input.num_scenarios();
  solver::Model& model = out->model;
  out->vars = add_base(model, input);
  std::vector<std::vector<solver::VarId>> select(static_cast<std::size_t>(Q));
  for (int q = 0; q < Q; ++q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    const int Z = std::max<int>(1, static_cast<int>(tickets.tickets.size()));
    solver::LinExpr one;
    for (int z = 0; z < Z; ++z) {
      const auto x = model.add_binary(0.0);
      select[static_cast<std::size_t>(q)].push_back(x);
      one.add_term(x, 1.0);
      const auto& ticket = ticket_or_naive(prepared, cache, q, z);
      const auto& flags = cache.flags(q, z);
      // (31): cover relaxed unless ticket z is selected.
      for (int f : input.affected_flows(q)) {
        const double big_m =
            input.flows()[static_cast<std::size_t>(f)].demand_gbps;
        solver::LinExpr expr = cover_row(input, out->vars, q, flags, f);
        expr.add_term(x, -big_m);
        model.add_constr(expr, solver::Sense::kGe, -big_m);
      }
      // (32): restored capacity relaxed unless selected.
      for (std::size_t li = 0; li < tickets.failed_links.size(); ++li) {
        const topo::IpLinkId e = tickets.failed_links[li];
        const double big_m =
            input.net().ip_links[static_cast<std::size_t>(e)].capacity_gbps();
        solver::LinExpr load = link_load_row(input, out->vars, flags, e);
        load.add_term(x, big_m);
        model.add_constr(load, solver::Sense::kLe, ticket.gbps[li] + big_m);
      }
    }
    model.add_constr(one, solver::Sense::kEq, 1.0);  // (33)
  }
  return select;
}

// TeSolution::restored: each scenario's failed links at the capacity its
// winner (sol->winner, -1 = naive plan) restores.
void fill_restored(const ArrowPrepared& prepared,
                   const RestorabilityCache& cache, TeSolution* sol) {
  sol->restored.resize(sol->winner.size());
  for (std::size_t q = 0; q < sol->winner.size(); ++q) {
    const auto& failed = prepared.tickets[q].failed_links;
    const auto& ticket = ticket_or_naive(prepared, cache, static_cast<int>(q),
                                         sol->winner[q]);
    for (std::size_t li = 0; li < failed.size(); ++li) {
      sol->restored[q][failed[li]] = ticket.gbps[li];
    }
  }
}

// The caller's shared cache, else a private one built into `local`. The
// cache (and its index) never change the model — only how fast it is
// assembled.
const RestorabilityCache* shared_or_local(
    const TeInput& input, const ArrowPrepared& prepared,
    util::ThreadPool& pool, const RestorabilityCache* cache,
    std::optional<RestorabilityCache>& local) {
  return cache != nullptr ? cache : &local.emplace(input, prepared, pool);
}

// Checks the cache's Phase II LP out for `winners` (see ResidentLp).
std::unique_ptr<ResidentLp> check_out_phase2(const TeInput& input,
                                             const ArrowPrepared& prepared,
                                             const std::vector<int>& winners,
                                             const RestorabilityCache& cache) {
  return ResidentLp::check_out(
      ResidentLp::phase2(cache), {.slack_penalty = 0.0, .winners = winners},
      input, [&](ArrowModel* out) {
        build_phase2(input, prepared, winners, cache, out);
      });
}

// Phase II on the LP resident in the cache + solution extraction.
TeSolution phase2(const TeInput& input, const ArrowPrepared& prepared,
                  const std::vector<int>& winners, const char* scheme,
                  double extra_seconds, const RestorabilityCache* cache,
                  util::ThreadPool& pool) {
  std::optional<RestorabilityCache> local;
  cache = shared_or_local(input, prepared, pool, cache, local);
  auto p2 = check_out_phase2(input, prepared, winners, *cache);
  const auto t0 = Clock::now();
  OBS_SPAN("phase2_solve");
  const auto res = p2->lp.model.solve();
  TeSolution sol = extract_solution(p2->lp.model, input, p2->lp.vars, scheme,
                                    res, seconds_since(t0) + extra_seconds);
  ResidentLp::park(ResidentLp::phase2(*cache), std::move(p2));
  sol.winner = winners;
  fill_restored(prepared, *cache, &sol);
  return sol;
}

// Build cost since t0 and fingerprint of a built, unsolved model.
ModelBuildStats build_stats(Clock::time_point t0, const solver::Model& model) {
  ModelBuildStats stats;
  stats.build_seconds = seconds_since(t0);
  stats.vars = model.num_vars();
  stats.rows = model.num_constrs();
  stats.model_fingerprint = model.fingerprint();
  return stats;
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

// Winner per scenario from a Phase I allocation (the selection itself is
// order-independent, see select_phase1_winner).
std::vector<int> pick_winners(const TeInput& input,
                              const ArrowPrepared& prepared,
                              const RestorabilityCache& cache,
                              const ArrowParams& params,
                              const std::vector<std::vector<double>>& alloc) {
  const int Q = input.num_scenarios();
  std::vector<int> winners(static_cast<std::size_t>(Q), -1);
  for (int q = 0; q < Q; ++q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    if (tickets.tickets.empty()) continue;  // fall back to naive (-1)
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
  }
  return winners;
}

}  // namespace

std::vector<char> restorable_flags(const TeInput& input, int q,
                                   const ticket::TicketSet& tickets,
                                   const ticket::LotteryTicket& ticket) {
  std::vector<char> flags(static_cast<std::size_t>(input.total_tunnels()), 0);
  const auto set_on = [&](topo::IpLinkId e, char value) {
    for (const auto& lt : input.tunnels_on_link(e)) {
      flags[static_cast<std::size_t>(lt.flat)] = value;
    }
  };
  // The dead tunnels are exactly those on q's failed links. Of these, a
  // tunnel crossing a link the ticket restores no capacity on, or a failed
  // link the ticket does not list, stays down.
  const auto& failed = input.failed_links(q);
  for (topo::IpLinkId e : failed) set_on(e, 1);
  for (std::size_t li = 0; li < tickets.failed_links.size(); ++li) {
    if (ticket.gbps[li] <= 1e-9) set_on(tickets.failed_links[li], 0);
  }
  for (topo::IpLinkId e : failed) {
    if (std::find(tickets.failed_links.begin(), tickets.failed_links.end(),
                  e) == tickets.failed_links.end()) {
      set_on(e, 0);
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

RestorabilityCache::~RestorabilityCache() = default;

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
  std::optional<RestorabilityCache> local;
  cache = shared_or_local(input, prepared, pool, cache, local);
  ArrowModel p1;
  build_phase1(input, prepared, params, *cache, &p1);
  return build_stats(t0, p1.model);
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
  cache = shared_or_local(input, prepared, pool, cache, local);
  auto& slot = ResidentLp::phase1(*cache);
  auto p1 = ResidentLp::check_out(
      slot, {.slack_penalty = params.slack_penalty, .winners = {}}, input,
      [&](ArrowModel* out) {
        build_phase1(input, prepared, params, *cache, out);
      });
  const auto t0 = Clock::now();
  solver::SolveResult res;
  {
    OBS_SPAN("phase1_solve");
    res = p1->lp.model.solve();
  }
  Phase1Result out;
  out.seconds = seconds_since(t0);
  out.objective = res.objective;
  out += res;
  out.optimal = res.optimal();
  std::vector<std::vector<double>> alloc;
  if (out.optimal) alloc = extract_alloc(p1->lp.model, p1->lp.vars);
  ResidentLp::park(slot, std::move(p1));
  if (out.optimal) {
    out.winners = pick_winners(input, prepared, *cache, params, alloc);
  }
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
  cache = shared_or_local(input, prepared, pool, cache, local);

  Phase1Result out;
  out.decomposed = true;
  const auto t0 = Clock::now();

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
  // already in the master.
  std::vector<std::vector<char>> cover_present(static_cast<std::size_t>(Q));
  for (int q = 0; q < Q; ++q) {
    cover_present[static_cast<std::size_t>(q)].assign(
        input.affected_flows(q).size(), 0);
  }

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
      out.seconds = seconds_since(t0);
      return out;  // optimal stays false: same contract as the monolithic LP
    }

    alloc = extract_alloc(master, vars);

    // Pricing, in scenario order: every decision below is a closed-form
    // function of the master solution, and add_constr leaves that solution
    // in place, so rows appended for one scenario never steer the next.
    bool appended = false;
    for (int q = 0; q < Q; ++q) {
      const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
      const auto& any = cache->union_flags(q);

      // Violated cover rows (4) of build_phase1, valued at the master
      // point in row term order: -b_f, then the tunnels.
      const auto& affected = input.affected_flows(q);
      auto& present = cover_present[static_cast<std::size_t>(q)];
      for (std::size_t i = 0; i < affected.size(); ++i) {
        if (present[i]) continue;
        solver::LinExpr row = cover_row(input, vars, q, any, affected[i]);
        double lhs = row.constant();
        for (const auto& [v, c] : row.terms()) lhs += c * master.value(v);
        if (lhs < -1e-9) {
          master.add_constr(row, solver::Sense::kGe, 0.0);
          present[i] = 1;
          ++out.decomposition_cuts;
          appended = true;
        }
      }

      const std::size_t L = tickets.failed_links.size();
      if (L == 0) continue;  // f_q = 0 and theta_q >= 0: never violated
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
        const auto& ticket = ticket_or_naive(prepared, *cache, q, z);
        for (std::size_t li = 0; li < L; ++li) {
          if (loads[li] - ticket.gbps[li] > 0.0) {
            true_penalty += loads[li] - ticket.gbps[li];
            ++cnt[li];
            cut_rhs -= ticket.gbps[li];
          }
        }
      }
      if (true_penalty - master.value(theta[static_cast<std::size_t>(q)]) >
          params.decomposition.tolerance) {
        solver::LinExpr cut{theta[static_cast<std::size_t>(q)]};
        for (std::size_t li = 0; li < L; ++li) {
          if (cnt[li] == 0) continue;
          cut += -static_cast<double>(cnt[li]) *
                 link_load_row(input, vars, any, tickets.failed_links[li]);
        }
        master.add_constr(cut, solver::Sense::kGe, cut_rhs);
        ++out.decomposition_cuts;
        appended = true;
      }
    }
    if (!appended) {
      converged = true;
      break;
    }
  }
  out.seconds = seconds_since(t0);
  if (!converged) return out;  // max_rounds backstop hit: not solved

  out.optimal = true;
  out.winners = pick_winners(input, prepared, *cache, params, alloc);

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
  std::optional<RestorabilityCache> local;
  cache = shared_or_local(input, prepared, pool, cache, local);

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
  TeSolution sol =
      phase2(input, prepared, p1.winners, "ARROW", p1.seconds, cache, pool);
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
  std::vector<int> winners(static_cast<std::size_t>(input.num_scenarios()), -1);
  return phase2(input, prepared, winners, "ARROW-Naive", 0.0, cache, pool);
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
  return phase2(input, prepared, winners, "ARROW-Fixed", 0.0, cache, pool);
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
  std::optional<RestorabilityCache> local;
  cache = shared_or_local(input, prepared, pool, cache, local);
  ArrowModel ilp;
  const auto select = build_ilp(input, prepared, *cache, &ilp);

  const auto t0 = Clock::now();
  const auto res = ilp.model.solve();
  TeSolution sol = extract_solution(ilp.model, input, ilp.vars, "ARROW-ILP",
                                    res, seconds_since(t0));
  if (!sol.optimal) return sol;
  sol.winner.assign(select.size(), -1);
  for (std::size_t q = 0; q < select.size(); ++q) {
    for (std::size_t z = 0; z < select[q].size(); ++z) {
      if (ilp.model.value(select[q][z]) > 0.5) {
        sol.winner[q] =
            prepared.tickets[q].tickets.empty() ? -1 : static_cast<int>(z);
        break;
      }
    }
  }
  fill_restored(prepared, *cache, &sol);
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
  std::optional<RestorabilityCache> local;
  cache = shared_or_local(input, prepared, pool, cache, local);
  ArrowModel p2;
  build_phase2(input, prepared, winners, *cache, &p2);
  return build_stats(t0, p2.model);
}

ModelBuildStats resident_phase2_model(const TeInput& input,
                                      const ArrowPrepared& prepared,
                                      const std::vector<int>& winners,
                                      const RestorabilityCache& cache) {
  ARROW_CHECK(static_cast<int>(winners.size()) == input.num_scenarios(),
              "winner count mismatch");
  const auto t0 = Clock::now();
  auto p2 = check_out_phase2(input, prepared, winners, cache);
  const ModelBuildStats stats = build_stats(t0, p2->lp.model);
  ResidentLp::park(ResidentLp::phase2(cache), std::move(p2));
  return stats;
}

ModelBuildStats build_arrow_ilp_model(const TeInput& input,
                                      const ArrowPrepared& prepared,
                                      const ArrowParams& /*params*/,
                                      util::ThreadPool& pool,
                                      const RestorabilityCache* cache) {
  OBS_SPAN("ilp_build");
  const auto t0 = Clock::now();
  std::optional<RestorabilityCache> local;
  cache = shared_or_local(input, prepared, pool, cache, local);
  ArrowModel ilp;
  build_ilp(input, prepared, *cache, &ilp);
  return build_stats(t0, ilp.model);
}

}  // namespace arrow::te

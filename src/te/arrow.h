// ARROW's restoration-aware TE (paper §3.3, Tables 2/3, Appendix A.5).
//
// Offline stage: per failure scenario, solve the restoration RWA LP and
// expand it into LotteryTickets (prepare_arrow).
//
// Online stage (solve_arrow): Phase I picks the winning ticket per scenario
// via slack variables; Phase II re-optimizes tunnel allocations against the
// winners. ARROW-Naive bypasses Phase I using the raw RWA restoration plan.
// The exact binary-ILP selection (Table 9) is available for small instances.
#pragma once

#include <cstdint>
#include <vector>

#include "te/input.h"
#include "te/solution.h"
#include "ticket/ticket.h"
#include "util/parallel.h"

namespace arrow::te {

// Phase I decomposition knobs (see solve_phase1_decomposed below).
struct DecompositionParams {
  // Off: solve_arrow builds the monolithic Table 2 LP. On: Phase I runs as a
  // coordinating master over the shared allocation, with each scenario's
  // cover rows and slack penalty priced in parallel in closed form — same
  // optimum, but the master only ever holds the scenario rows that actually
  // bind, which is what scales the scenario count past what the monolithic
  // model can hold.
  bool enabled = false;
  // Master-loop iteration cap. Each round can only add missing rows (a
  // present row is never violated again), so the loop terminates on its own;
  // the cap is a backstop against pathological instances.
  int max_rounds = 64;
  // A scenario's true penalty may exceed the master's relaxation by this
  // much (in Gbps of unsupported allocation) without forcing another cut.
  double tolerance = 1e-7;
};

struct ArrowParams {
  ticket::TicketParams tickets;   // |Z|, rounding stride, feasibility filter
  optical::RwaOptions rwa;        // surrogate-path search configuration
  // M^{z,q} = alpha * sum_e r_e^{z,q} (footnote 4: alpha in {0.2, 0.1, 0.05}).
  double alpha = 0.1;
  // ReLU-style penalty on positive slack (footnote 5); keeps Phase I's slack
  // variables meaningful without turning the LP into an ILP.
  double slack_penalty = 1e-3;
  // Always include the deterministic RWA-floor plan among the candidates.
  // Algorithm 1 as written generates all |Z| tickets by randomized rounding;
  // adding the floor plan is a strict improvement (ARROW then never does
  // worse than ARROW-Naive). Disable for paper-faithful Fig. 14 runs.
  bool include_naive_candidate = true;
  // Phase I decomposition (default off; sweep output on the seed corpus is
  // byte-identical either way — see tests/decomposition_test.cc).
  DecompositionParams decomposition;
};

// Offline artifacts, reusable across TE runs while the IP/optical mapping is
// unchanged (§3.1: this stage does not run at TE frequency).
struct ArrowPrepared {
  std::vector<optical::RwaResult> rwa;      // per scenario
  std::vector<ticket::TicketSet> tickets;   // per scenario
};

// Fans the per-scenario RWA solve + ticket rounding out across `pool`.
// Draws one base value from `rng`, then scenario q rounds with its own
// counter-seeded stream Rng(stream_seed(base, q)) — the artifacts are a pure
// function of the seed, bit-identical at any thread count (the serial
// trajectory changes once, at the introduction of streams, not per run).
ArrowPrepared prepare_arrow(const TeInput& input, const ArrowParams& params,
                            util::Rng& rng, util::ThreadPool& pool);

// Convenience overload on the process-wide pool (util::global_pool()).
ArrowPrepared prepare_arrow(const TeInput& input, const ArrowParams& params,
                            util::Rng& rng);

// One scenario's offline artifacts (prepare_arrow is this over every
// scenario). Exposed so the controller can re-solve a single scenario whose
// RWA was lost to a solver fault instead of sailing on with zero-wave
// restoration plans.
void prepare_arrow_scenario(const TeInput& input, int q,
                            const ArrowParams& params, util::Rng& rng,
                            optical::RwaResult* rwa,
                            ticket::TicketSet* tickets);

// Per-(scenario, ticket) restorability flags for every flattened tunnel:
// flags[input.tunnel_index(f, ti)] != 0 iff tunnel (f, ti) is dead in q and
// every failed link it crosses has restored capacity > 0 under `ticket`
// (§3.3 "Phase I input parameters"). Pure function of its arguments; the
// RestorabilityCache below memoizes it per (q, z).
std::vector<char> restorable_flags(const TeInput& input, int q,
                                   const ticket::TicketSet& tickets,
                                   const ticket::LotteryTicket& ticket);

// Restorability flags computed once per (scenario, candidate ticket) and
// shared by Phase I, winner post-processing, Phase II, the exact ILP and the
// controller's degradation ladder — previously each call site recomputed
// them from scratch (Phase I alone did Q * Z full passes). The per-scenario
// entries are built in parallel on the pool; each slot is written by exactly
// one body, so the cache is bit-identical at any thread count.
class RestorabilityCache {
 public:
  RestorabilityCache(const TeInput& input, const ArrowPrepared& prepared,
                     util::ThreadPool& pool);
  // Convenience overload on the process-wide pool (util::global_pool()).
  RestorabilityCache(const TeInput& input, const ArrowPrepared& prepared);

  // Flags for candidate z of scenario q. A z outside [0, Z) selects the
  // naive RWA-floor plan (mirrors the -1 convention of
  // solve_arrow_with_winners and TeSolution::winner).
  const std::vector<char>& flags(int q, int z) const;
  // OR over the candidates Phase I considers for q: the per-ticket entries
  // when the scenario has tickets, else the naive plan alone.
  const std::vector<char>& union_flags(int q) const;

  // The deterministic RWA-floor ticket per scenario (what z = -1 selects).
  const ticket::LotteryTicket& naive_ticket(int q) const {
    return naive_tickets_[static_cast<std::size_t>(q)];
  }
  const std::vector<ticket::LotteryTicket>& naive_tickets() const {
    return naive_tickets_;
  }

  int num_scenarios() const { return static_cast<int>(per_scenario_.size()); }
  int num_tickets(int q) const {
    return static_cast<int>(
        per_scenario_[static_cast<std::size_t>(q)].per_ticket.size());
  }

 private:
  struct PerScenario {
    std::vector<std::vector<char>> per_ticket;  // [z][flat tunnel]
    std::vector<char> naive;                    // z = -1 [flat tunnel]
    std::vector<char> any;                      // Phase I union [flat tunnel]
  };
  std::vector<PerScenario> per_scenario_;
  std::vector<ticket::LotteryTicket> naive_tickets_;
};

// Phase I + winner post-processing + Phase II. When `cache` is null a
// RestorabilityCache is built internally on `pool`; pass one explicitly to
// share it with other solves over the same (input, prepared) pair (e.g. the
// controller's ladder retries).
TeSolution solve_arrow(const TeInput& input, const ArrowPrepared& prepared,
                       const ArrowParams& params);
TeSolution solve_arrow(const TeInput& input, const ArrowPrepared& prepared,
                       const ArrowParams& params, util::ThreadPool& pool,
                       const RestorabilityCache* cache = nullptr);

// ---- Phase I entry points --------------------------------------------------

// Phase I alone: the shared allocation plus the winning ticket per scenario
// (-1 = naive RWA-floor plan), without paying for Phase II. The SolveWork
// base sums over every LP attempt the path made (every master round on the
// decomposed path); its decomposition_* counters are 0 on the monolithic
// path.
struct Phase1Result : obs::SolveWork {
  bool optimal = false;
  bool decomposed = false;   // which path produced this result
  std::vector<int> winners;  // per scenario (empty when !optimal)
  double objective = 0.0;    // Phase I LP objective (master's at convergence)
  double seconds = 0.0;
};

// Dispatches on params.decomposition.enabled.
Phase1Result solve_phase1(const TeInput& input, const ArrowPrepared& prepared,
                          const ArrowParams& params, util::ThreadPool& pool,
                          const RestorabilityCache* cache = nullptr);

// The decomposition solve (Benders-style price-and-cut). The master LP holds
// the shared allocation variables, one penalty variable theta_q per scenario,
// and only the scenario rows proven necessary so far. Each round solves the
// master, then fans per-scenario pricing out on `pool`: closed-form link
// loads from the master allocation decide which cover rows are violated and
// how far theta_q undershoots the scenario's true penalty. Violated rows and
// optimality cuts are appended serially in scenario order; the loop ends
// when no row is missing. The master is the only LP the loop solves; its
// solves carry one warm-start tag (kMasterBasisTag), so its bases chain
// across sweep scales and controller ticks via ScopedWarmStartCache and
// BasisStore. All control flow is a pure function of master solutions
// computed on the calling thread, so the trajectory — and the final
// allocation — is bit-identical at any thread count. A non-optimal master
// solve fails the whole Phase I (optimal = false), the same all-or-nothing
// contract as the monolithic solve.
Phase1Result solve_phase1_decomposed(const TeInput& input,
                                     const ArrowPrepared& prepared,
                                     const ArrowParams& params,
                                     util::ThreadPool& pool,
                                     const RestorabilityCache* cache = nullptr);

// Order-independent Phase I winner selection for one scenario (exposed for
// the tie-break regression tests). Two-pass set rule over the candidates'
// slack totals: restrict to the in-budget candidates when any exist
// (slack <= budget), take the tie set within 1e-9 of the set's minimum
// slack, prefer the most restored capacity (1e-9 margin), and break exact
// ties toward the lowest index. Every comparison is against a set extremum,
// never an incumbent, so the answer cannot depend on scan order — the old
// incumbent scan's +-1e-9 tolerance was non-transitive and a slack chain
// {0, 0.9e-9, 1.8e-9} picked different winners forward and backward.
// Returns -1 only when the inputs are empty.
int select_phase1_winner(const std::vector<double>& slack_totals,
                         const std::vector<double>& ticket_gbps,
                         const std::vector<double>& budgets);

// Per-candidate slack totals sum_li max(0, load_li - r_li^z) for scenario q,
// computed in closed form from an allocation a[f][ti] (union-restorable
// tunnels only, fixed summation order). At a Phase I optimum the LP's slack
// variables equal exactly this (dp = max(0, load - r) under the ReLU
// penalty), so both Phase I paths share it for winner selection — making
// the winners a pure function of the allocation, not of which path (or
// which degenerate slack vertex) produced it.
std::vector<double> phase1_slack_totals(
    const TeInput& input, const ArrowPrepared& prepared,
    const RestorabilityCache& cache, int q,
    const std::vector<std::vector<double>>& alloc);

// Phase II only, with the RWA-derived restoration plan as the sole ticket.
// The pool overload fans the per-scenario row generation out; pass an inline
// ThreadPool(1) when calling from a pool worker (see sim::run_sweep) — the
// pool-less overload uses util::global_pool().
TeSolution solve_arrow_naive(const TeInput& input,
                             const ArrowPrepared& prepared,
                             const ArrowParams& params, util::ThreadPool& pool,
                             const RestorabilityCache* cache = nullptr);
TeSolution solve_arrow_naive(const TeInput& input,
                             const ArrowPrepared& prepared,
                             const ArrowParams& params,
                             const RestorabilityCache* cache = nullptr);

// Phase II only, against an explicit winner ticket index per scenario
// (-1 selects the naive RWA plan). Used by ablations and oracle baselines.
TeSolution solve_arrow_with_winners(const TeInput& input,
                                    const ArrowPrepared& prepared,
                                    const std::vector<int>& winners,
                                    util::ThreadPool& pool,
                                    const RestorabilityCache* cache = nullptr);
TeSolution solve_arrow_with_winners(const TeInput& input,
                                    const ArrowPrepared& prepared,
                                    const std::vector<int>& winners,
                                    const RestorabilityCache* cache = nullptr);

// Exact ticket selection via binary ILP (Table 9); exponential — small
// instances only. Used to validate the two-phase LP in tests/ablations.
// Constraint rows (31)-(32) are generated per scenario on `pool`, with the
// binary selectors and the serial append keeping the model bit-identical at
// any thread count.
TeSolution solve_arrow_ilp(const TeInput& input, const ArrowPrepared& prepared,
                           const ArrowParams& params, util::ThreadPool& pool,
                           const RestorabilityCache* cache = nullptr);
TeSolution solve_arrow_ilp(const TeInput& input, const ArrowPrepared& prepared,
                           const ArrowParams& params,
                           const RestorabilityCache* cache = nullptr);

// Build cost + fingerprint of a model assembled but not solved — the hook
// the bench_phase*_build binaries use to time model assembly without paying
// for a solve. The fingerprint hashes every variable and row of the built
// model, so two builds that claim to be equivalent (different thread counts,
// shared vs private cache) can be checked for bit-identity without solving.
// When `cache` is null the RestorabilityCache is built internally on `pool`
// and its construction counts toward build_seconds (the cost an unshared
// solve pays).
struct ModelBuildStats {
  double build_seconds = 0.0;
  int vars = 0;
  int rows = 0;
  std::uint64_t model_fingerprint = 0;
};
using Phase1BuildStats = ModelBuildStats;

// Phase I (Table 2).
ModelBuildStats build_phase1_model(const TeInput& input,
                                   const ArrowPrepared& prepared,
                                   const ArrowParams& params,
                                   util::ThreadPool& pool,
                                   const RestorabilityCache* cache = nullptr);

// Phase II (Table 3) against an explicit winner per scenario (-1 = naive
// RWA-floor plan, the solve_arrow_with_winners convention).
ModelBuildStats build_phase2_model(const TeInput& input,
                                   const ArrowPrepared& prepared,
                                   const std::vector<int>& winners,
                                   const ArrowParams& params,
                                   util::ThreadPool& pool,
                                   const RestorabilityCache* cache = nullptr);

// Exact binary-ILP selection (Table 9).
ModelBuildStats build_arrow_ilp_model(const TeInput& input,
                                      const ArrowPrepared& prepared,
                                      const ArrowParams& params,
                                      util::ThreadPool& pool,
                                      const RestorabilityCache* cache = nullptr);

// Is tunnel (f, ti) restorable under scenario q and the given ticket? True
// iff the tunnel is dead in q and every failed link it crosses has restored
// capacity > 0 (§3.3 "Phase I input parameters").
bool tunnel_restorable(const TeInput& input, int f, int ti, int q,
                       const ticket::TicketSet& tickets,
                       const ticket::LotteryTicket& ticket);

}  // namespace arrow::te

// Tests for the shared RestorabilityCache and the model-build path
// (link->tunnel incidence index + parallel Phase I/II/ILP row generation):
// the cache must agree flag-for-flag with fresh restorable_flags
// computations, restorable_flags' walk over q's failed links must agree
// with a full scan of every tunnel, and the builds must produce
// bit-identical models — and therefore bit-identical TE solutions — at any
// thread count, with the cache shared or rebuilt locally. The single-thread
// private-cache build is the baseline every other configuration is compared
// against.
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lp_bits.h"
#include "solver/lp.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"

namespace arrow::te {
namespace {

class RestorabilityFixture : public ::testing::Test {
 protected:
  RestorabilityFixture() : net_(topo::build_b4()) {
    util::Rng rng(51);
    traffic::TrafficParams tp;
    tp.num_matrices = 1;
    matrices_ = traffic::generate_traffic(net_, tp, rng);
    scenario::ScenarioParams sp;
    sp.probability_cutoff = 0.001;
    auto set = scenario::generate_scenarios(net_, sp, rng);
    scenarios_ = scenario::remove_disconnecting(net_, set.scenarios);
    TunnelParams tun;
    tun.tunnels_per_flow = 6;
    input_ = std::make_unique<TeInput>(net_, matrices_[0], scenarios_, tun);
    input_->scale_demands(max_satisfiable_scale(*input_));
    input_->scale_demands(0.8);
    params_.tickets.num_tickets = 5;
    prepared_ = prepare_arrow(*input_, params_, rng);
  }

  topo::Network net_;
  std::vector<traffic::TrafficMatrix> matrices_;
  std::vector<scenario::Scenario> scenarios_;
  std::unique_ptr<TeInput> input_;
  ArrowParams params_;
  ArrowPrepared prepared_;
};

// Every TeSolution field that defines the TE outcome, compared exactly:
// identical models solved by a deterministic simplex must agree to the bit,
// not just to a tolerance.
void expect_identical(const TeSolution& a, const TeSolution& b) {
  EXPECT_EQ(a.optimal, b.optimal);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.alloc, b.alloc);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.restored, b.restored);
}

TEST_F(RestorabilityFixture, CachedFlagsMatchFreshComputation) {
  const RestorabilityCache cache(*input_, prepared_);
  ASSERT_EQ(cache.num_scenarios(), input_->num_scenarios());
  for (int q = 0; q < input_->num_scenarios(); ++q) {
    const auto& tickets = prepared_.tickets[static_cast<std::size_t>(q)];
    ASSERT_EQ(cache.num_tickets(q),
              static_cast<int>(tickets.tickets.size()));
    for (int z = 0; z < cache.num_tickets(q); ++z) {
      EXPECT_EQ(cache.flags(q, z),
                restorable_flags(*input_, q, tickets,
                                 tickets.tickets[static_cast<std::size_t>(z)]))
          << "q=" << q << " z=" << z;
    }
    // Out-of-range z selects the naive RWA-floor plan (the -1 convention).
    const auto naive_fresh = restorable_flags(
        *input_, q, tickets,
        ticket::naive_ticket(prepared_.rwa[static_cast<std::size_t>(q)]));
    EXPECT_EQ(cache.flags(q, -1), naive_fresh) << "q=" << q;
    EXPECT_EQ(cache.flags(q, cache.num_tickets(q)), naive_fresh) << "q=" << q;
  }
}

// Oracle for restorable_flags: the full scan it replaced, which checks every
// dead tunnel link by link against a map of the ticket's restored capacity.
std::vector<char> full_scan_flags(const TeInput& input, int q,
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
        if (it == restored.end()) {
          bool failed = false;
          for (int fe : input.failed_links(q)) failed = failed || fe == e;
          if (failed) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        flags[static_cast<std::size_t>(
            input.tunnel_index(f, static_cast<int>(ti)))] = 1;
      }
    }
  }
  return flags;
}

int count_set(const std::vector<char>& flags) {
  int n = 0;
  for (char c : flags) n += c != 0;
  return n;
}

// The walk agrees with the scan for every (q, z) and the naive plan, and on
// two hand-made tickets of the first scenario whose naive plan restores a
// tunnel across its first failed link: one restoring 0 Gbps on that link,
// one whose failed_links omits it. Both must clear at least one tunnel, or
// they would not exercise the clearing branches.
void expect_walk_matches_scan(const TeInput& input,
                              const ArrowPrepared& prepared) {
  bool hand_made = false;
  for (int q = 0; q < input.num_scenarios(); ++q) {
    const auto& tickets = prepared.tickets[static_cast<std::size_t>(q)];
    for (const auto& t : tickets.tickets) {
      EXPECT_EQ(restorable_flags(input, q, tickets, t),
                full_scan_flags(input, q, tickets, t))
          << "q=" << q;
    }
    const auto naive =
        ticket::naive_ticket(prepared.rwa[static_cast<std::size_t>(q)]);
    const auto naive_flags = restorable_flags(input, q, tickets, naive);
    EXPECT_EQ(naive_flags, full_scan_flags(input, q, tickets, naive))
        << "q=" << q;

    if (hand_made || tickets.failed_links.empty()) continue;
    bool restores_first = false;
    for (const auto& lt : input.tunnels_on_link(tickets.failed_links[0])) {
      restores_first =
          restores_first || naive_flags[static_cast<std::size_t>(lt.flat)];
    }
    if (!restores_first) continue;
    hand_made = true;

    ticket::LotteryTicket zero = naive;
    zero.gbps[0] = 0.0;
    const auto zero_flags = restorable_flags(input, q, tickets, zero);
    EXPECT_EQ(zero_flags, full_scan_flags(input, q, tickets, zero));
    EXPECT_LT(count_set(zero_flags), count_set(naive_flags));

    ticket::TicketSet omitted = tickets;
    omitted.failed_links.erase(omitted.failed_links.begin());
    ticket::LotteryTicket shorter = naive;
    shorter.gbps.erase(shorter.gbps.begin());
    const auto omitted_flags = restorable_flags(input, q, omitted, shorter);
    EXPECT_EQ(omitted_flags, full_scan_flags(input, q, omitted, shorter));
    EXPECT_LT(count_set(omitted_flags), count_set(naive_flags));
  }
  EXPECT_TRUE(hand_made) << "no scenario restores a tunnel on a failed link";
}

TEST_F(RestorabilityFixture, FailedLinkWalkMatchesFullScan) {
  expect_walk_matches_scan(*input_, prepared_);
}

TEST(RestorabilityIbm, FailedLinkWalkMatchesFullScan) {
  const topo::Network net = topo::build_ibm();
  util::Rng rng(7);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto matrices = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.005;
  auto set = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, set.scenarios);
  TunnelParams tun;
  tun.tunnels_per_flow = 6;
  const TeInput input(net, matrices[0], scenarios, tun);
  ArrowParams params;
  params.tickets.num_tickets = 4;
  expect_walk_matches_scan(input, prepare_arrow(input, params, rng));
}

TEST_F(RestorabilityFixture, UnionIsOrOfPerTicketFlags) {
  const RestorabilityCache cache(*input_, prepared_);
  for (int q = 0; q < cache.num_scenarios(); ++q) {
    const auto& u = cache.union_flags(q);
    if (cache.num_tickets(q) == 0) {
      // No candidates: Phase I's only plan is the naive one.
      EXPECT_EQ(u, cache.flags(q, -1)) << "q=" << q;
      continue;
    }
    std::vector<char> expect(u.size(), 0);
    for (int z = 0; z < cache.num_tickets(q); ++z) {
      const auto& f = cache.flags(q, z);
      for (std::size_t i = 0; i < expect.size(); ++i) expect[i] |= f[i];
    }
    EXPECT_EQ(u, expect) << "q=" << q;
  }
}

TEST_F(RestorabilityFixture, CacheIsThreadCountInvariant) {
  util::ThreadPool p1(1), p2(2), p8(8);
  const RestorabilityCache c1(*input_, prepared_, p1);
  const RestorabilityCache c2(*input_, prepared_, p2);
  const RestorabilityCache c8(*input_, prepared_, p8);
  for (int q = 0; q < c1.num_scenarios(); ++q) {
    for (int z = -1; z < c1.num_tickets(q); ++z) {
      EXPECT_EQ(c1.flags(q, z), c2.flags(q, z));
      EXPECT_EQ(c1.flags(q, z), c8.flags(q, z));
    }
    EXPECT_EQ(c1.union_flags(q), c2.union_flags(q));
    EXPECT_EQ(c1.union_flags(q), c8.union_flags(q));
  }
}

TEST_F(RestorabilityFixture, Phase1ModelIsBuildConfigurationInvariant) {
  util::ThreadPool p1(1), p2(2), p8(8);
  const Phase1BuildStats base = build_phase1_model(*input_, prepared_,
                                                   params_, p1);
  ASSERT_GT(base.vars, 0);
  ASSERT_GT(base.rows, 0);
  ASSERT_NE(base.model_fingerprint, 0u);

  const RestorabilityCache shared(*input_, prepared_, p8);
  for (util::ThreadPool* pool : {&p1, &p2, &p8}) {
    for (const RestorabilityCache* cache :
         {static_cast<const RestorabilityCache*>(nullptr), &shared}) {
      const Phase1BuildStats stats =
          build_phase1_model(*input_, prepared_, params_, *pool, cache);
      EXPECT_EQ(stats.vars, base.vars);
      EXPECT_EQ(stats.rows, base.rows);
      EXPECT_EQ(stats.model_fingerprint, base.model_fingerprint)
          << "threads=" << pool->threads() << " shared_cache=" << (cache != nullptr);
    }
  }
}

TEST_F(RestorabilityFixture, Phase2ModelIsBuildConfigurationInvariant) {
  // Mixed winner vector: naive RWA plan everywhere, the first real candidate
  // for even scenarios that have one — covers both flag paths of the cache.
  std::vector<int> winners(
      static_cast<std::size_t>(input_->num_scenarios()), -1);
  for (int q = 0; q < input_->num_scenarios(); q += 2) {
    if (!prepared_.tickets[static_cast<std::size_t>(q)].tickets.empty()) {
      winners[static_cast<std::size_t>(q)] = 0;
    }
  }

  util::ThreadPool p1(1), p2(2), p8(8);
  const ModelBuildStats base =
      build_phase2_model(*input_, prepared_, winners, params_, p1);
  ASSERT_GT(base.vars, 0);
  ASSERT_GT(base.rows, 0);
  ASSERT_NE(base.model_fingerprint, 0u);

  const RestorabilityCache shared(*input_, prepared_, p8);
  for (util::ThreadPool* pool : {&p1, &p2, &p8}) {
    for (const RestorabilityCache* cache :
         {static_cast<const RestorabilityCache*>(nullptr), &shared}) {
      const ModelBuildStats stats =
          build_phase2_model(*input_, prepared_, winners, params_, *pool,
                             cache);
      EXPECT_EQ(stats.vars, base.vars);
      EXPECT_EQ(stats.rows, base.rows);
      EXPECT_EQ(stats.model_fingerprint, base.model_fingerprint)
          << "threads=" << pool->threads()
          << " shared_cache=" << (cache != nullptr);
    }
  }

  // A winner count that does not match the scenario count is a caller bug.
  std::vector<int> short_winners(winners.begin(), winners.end() - 1);
  EXPECT_THROW(
      build_phase2_model(*input_, prepared_, short_winners, params_, p1),
      std::logic_error);
}

TEST_F(RestorabilityFixture, SolveArrowIsBuildConfigurationInvariant) {
  util::ThreadPool p1(1), p8(8);
  const TeSolution before = solve_arrow(*input_, prepared_, params_, p1);
  ASSERT_TRUE(before.optimal);

  const RestorabilityCache shared(*input_, prepared_, p8);
  expect_identical(before, solve_arrow(*input_, prepared_, params_));
  expect_identical(before, solve_arrow(*input_, prepared_, params_, p8));
  expect_identical(before,
                   solve_arrow(*input_, prepared_, params_, p8, &shared));
}

TEST_F(RestorabilityFixture, SolveArrowNaiveIsBuildConfigurationInvariant) {
  util::ThreadPool p1(1), p8(8);
  const TeSolution before =
      solve_arrow_naive(*input_, prepared_, params_, p1);
  ASSERT_TRUE(before.optimal);
  const RestorabilityCache shared(*input_, prepared_);
  expect_identical(before, solve_arrow_naive(*input_, prepared_, params_));
  expect_identical(before,
                   solve_arrow_naive(*input_, prepared_, params_, p8));
  expect_identical(before,
                   solve_arrow_naive(*input_, prepared_, params_, &shared));
}

using test::expect_byte_equal;
using test::same_bits;

// The one LP a monolithic solve_phase1 runs, and its solution.
struct Phase1Capture {
  Phase1Result result;
  solver::Lp lp;
  solver::LpSolution sol;
};

Phase1Capture capture_phase1(const TeInput& input,
                             const ArrowPrepared& prepared,
                             const ArrowParams& params,
                             const RestorabilityCache& cache) {
  util::ThreadPool pool(1);
  Phase1Capture out;
  int solves = 0;
  solver::ScopedSolveObserver capture(
      [&](const solver::Lp& lp, solver::LpSolution& sol) {
        ++solves;
        out.lp = lp;
        out.sol = sol;
      });
  out.result = solve_phase1(input, prepared, params, pool, &cache);
  EXPECT_EQ(solves, 1);
  return out;
}

void expect_same_solve(const Phase1Capture& a, const Phase1Capture& b) {
  expect_byte_equal(a.lp, b.lp);
  EXPECT_EQ(a.sol.status, b.sol.status);
  EXPECT_TRUE(same_bits(a.sol.x, b.sol.x));
  EXPECT_EQ(a.sol.objective, b.sol.objective);
  EXPECT_EQ(a.sol.iterations, b.sol.iterations);
  EXPECT_EQ(a.result.optimal, b.result.optimal);
  EXPECT_EQ(a.result.objective, b.result.objective);
  EXPECT_EQ(a.result.winners, b.result.winners);
}

// A cache keeps its monolithic Phase I LP: later solves rewrite only the
// demand bounds and capacity rhs. What they solve must be byte-equal to a
// fresh cache's build for the same demands, with the same solution bits,
// and a second slack_penalty on the same cache must rebuild.
TEST_F(RestorabilityFixture, ResidentPhase1LpMatchesAFreshBuild) {
  util::Rng rng(52);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  TeInput second = *input_;
  second.set_demands(traffic::generate_traffic(net_, tp, rng)[0]);
  second.scale_demands(0.7 * max_satisfiable_scale(second));

  const RestorabilityCache resident(*input_, prepared_);
  const Phase1Capture first =
      capture_phase1(*input_, prepared_, params_, resident);
  ASSERT_TRUE(first.result.optimal);
  const Phase1Capture rebound =
      capture_phase1(second, prepared_, params_, resident);
  ASSERT_TRUE(rebound.result.optimal);
  EXPECT_FALSE(same_bits(first.lp.upper, rebound.lp.upper));
  {
    const RestorabilityCache fresh(second, prepared_);
    expect_same_solve(rebound,
                      capture_phase1(second, prepared_, params_, fresh));
  }

  ArrowParams other = params_;
  other.slack_penalty = 2.0 * params_.slack_penalty;
  const Phase1Capture repriced =
      capture_phase1(second, prepared_, other, resident);
  EXPECT_FALSE(same_bits(repriced.lp.cost, rebound.lp.cost));
  {
    const RestorabilityCache fresh(second, prepared_);
    expect_same_solve(repriced,
                      capture_phase1(second, prepared_, other, fresh));
  }
  // Back on the first demands and penalty, the first solve again.
  expect_same_solve(first,
                    capture_phase1(*input_, prepared_, params_, resident));
}

// The one LP a Phase II solve runs, and its solution.
struct Phase2Capture {
  TeSolution result;
  solver::Lp lp;
  solver::LpSolution sol;
};

Phase2Capture capture_phase2(const TeInput& input,
                             const ArrowPrepared& prepared,
                             const std::vector<int>& winners,
                             const RestorabilityCache& cache) {
  util::ThreadPool pool(1);
  Phase2Capture out;
  int solves = 0;
  solver::ScopedSolveObserver capture(
      [&](const solver::Lp& lp, solver::LpSolution& sol) {
        ++solves;
        out.lp = lp;
        out.sol = sol;
      });
  out.result = solve_arrow_with_winners(input, prepared, winners, pool, &cache);
  EXPECT_EQ(solves, 1);
  return out;
}

Phase2Capture fresh_phase2(const TeInput& input, const ArrowPrepared& prepared,
                           const std::vector<int>& winners) {
  const RestorabilityCache fresh(input, prepared);
  return capture_phase2(input, prepared, winners, fresh);
}

void expect_same_phase2(const Phase2Capture& a, const Phase2Capture& b) {
  expect_byte_equal(a.lp, b.lp);
  EXPECT_EQ(a.sol.status, b.sol.status);
  EXPECT_TRUE(same_bits(a.sol.x, b.sol.x));
  EXPECT_EQ(a.sol.objective, b.sol.objective);
  EXPECT_EQ(a.sol.iterations, b.sol.iterations);
  expect_identical(a.result, b.result);
}

// The cache keeps its Phase II LP too, keyed on the winners: the same
// winners on new demands rebind it, other winners (all-naive included)
// rebuild it, and every solve is byte-equal to a fresh cache's, with the
// same solution bits — also with two threads solving on one cache at once.
TEST_F(RestorabilityFixture, ResidentPhase2LpMatchesAFreshBuild) {
  util::Rng rng(53);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  TeInput second = *input_;
  second.set_demands(traffic::generate_traffic(net_, tp, rng)[0]);
  second.scale_demands(0.7 * max_satisfiable_scale(second));

  const std::size_t Q = static_cast<std::size_t>(input_->num_scenarios());
  const std::vector<int> naive(Q, -1);
  // mixed: the first candidate on even scenarios; other: the last one on
  // odd scenarios; the naive plan elsewhere.
  std::vector<int> mixed(Q, -1), other(Q, -1);
  for (std::size_t q = 0; q < Q; ++q) {
    const int Z = static_cast<int>(prepared_.tickets[q].tickets.size());
    if (Z == 0) continue;
    if (q % 2 == 0) {
      mixed[q] = 0;
    } else {
      other[q] = Z - 1;
    }
  }
  util::ThreadPool p1(1);
  ASSERT_NE(
      build_phase2_model(second, prepared_, mixed, params_, p1)
          .model_fingerprint,
      build_phase2_model(second, prepared_, other, params_, p1)
          .model_fingerprint);

  const RestorabilityCache resident(*input_, prepared_);
  const Phase2Capture first =
      capture_phase2(*input_, prepared_, mixed, resident);
  ASSERT_TRUE(first.result.optimal);
  expect_same_phase2(first, fresh_phase2(*input_, prepared_, mixed));
  const Phase2Capture rebound =
      capture_phase2(second, prepared_, mixed, resident);
  ASSERT_TRUE(rebound.result.optimal);
  EXPECT_FALSE(same_bits(first.lp.upper, rebound.lp.upper));
  expect_same_phase2(rebound, fresh_phase2(second, prepared_, mixed));
  expect_same_phase2(capture_phase2(second, prepared_, other, resident),
                     fresh_phase2(second, prepared_, other));
  expect_same_phase2(capture_phase2(second, prepared_, naive, resident),
                     fresh_phase2(second, prepared_, naive));
  // Back on the first demands and winners, the first solve again.
  expect_same_phase2(first,
                     capture_phase2(*input_, prepared_, mixed, resident));

  // Two threads, each with its own demands and winners, taking turns on
  // one cache's Phase II slot.
  const Phase2Capture want_mixed = first;
  const Phase2Capture want_naive = fresh_phase2(second, prepared_, naive);
  const RestorabilityCache shared(*input_, prepared_);
  std::thread worker([&] {
    for (int k = 0; k < 4; ++k) {
      expect_same_phase2(capture_phase2(*input_, prepared_, mixed, shared),
                         want_mixed);
    }
  });
  for (int k = 0; k < 4; ++k) {
    expect_same_phase2(capture_phase2(second, prepared_, naive, shared),
                       want_naive);
  }
  worker.join();
}

TEST(RestorabilitySmall, SolveArrowIlpIsBuildConfigurationInvariant) {
  // Tiny instance so the binary ILP (Table 9) finishes (same setup as
  // te_test's ArrowSmall).
  const topo::Network net = topo::build_testbed();
  util::Rng rng(4);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  tp.min_share = 0.0;
  const auto ms = traffic::generate_traffic(net, tp, rng);
  std::vector<scenario::Scenario> scenarios{
      {{0}, 0.01}, {{1}, 0.01}, {{3}, 0.01}};
  TunnelParams tun;
  tun.tunnels_per_flow = 3;
  TeInput input(net, ms[0], scenarios, tun);
  input.scale_demands(max_satisfiable_scale(input));
  input.scale_demands(0.8);

  ArrowParams ap;
  ap.tickets.num_tickets = 4;
  const auto prepared = prepare_arrow(input, ap, rng);

  util::ThreadPool p1(1), p8(8);
  const TeSolution before = solve_arrow_ilp(input, prepared, ap, p1);
  ASSERT_TRUE(before.optimal);
  const RestorabilityCache shared(input, prepared);
  expect_identical(before, solve_arrow_ilp(input, prepared, ap));
  expect_identical(before, solve_arrow_ilp(input, prepared, ap, p8));
  expect_identical(before, solve_arrow_ilp(input, prepared, ap, &shared));
}

TEST(RestorabilitySmall, IlpModelIsBuildConfigurationInvariant) {
  // Same tiny instance as above; the fingerprint check needs no ILP solve,
  // only the built model, so the binary selectors and big-M rows of the
  // parallel generator are compared across thread counts and cache sharing
  // exactly.
  const topo::Network net = topo::build_testbed();
  util::Rng rng(4);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  tp.min_share = 0.0;
  const auto ms = traffic::generate_traffic(net, tp, rng);
  std::vector<scenario::Scenario> scenarios{
      {{0}, 0.01}, {{1}, 0.01}, {{3}, 0.01}};
  TunnelParams tun;
  tun.tunnels_per_flow = 3;
  TeInput input(net, ms[0], scenarios, tun);
  input.scale_demands(max_satisfiable_scale(input));
  input.scale_demands(0.8);

  ArrowParams ap;
  ap.tickets.num_tickets = 4;
  const auto prepared = prepare_arrow(input, ap, rng);

  util::ThreadPool p1(1), p2(2), p8(8);
  const ModelBuildStats base = build_arrow_ilp_model(input, prepared, ap, p1);
  ASSERT_GT(base.vars, 0);
  ASSERT_GT(base.rows, 0);
  ASSERT_NE(base.model_fingerprint, 0u);

  const RestorabilityCache shared(input, prepared, p8);
  for (util::ThreadPool* pool : {&p1, &p2, &p8}) {
    for (const RestorabilityCache* cache :
         {static_cast<const RestorabilityCache*>(nullptr), &shared}) {
      const ModelBuildStats stats =
          build_arrow_ilp_model(input, prepared, ap, *pool, cache);
      EXPECT_EQ(stats.vars, base.vars);
      EXPECT_EQ(stats.rows, base.rows);
      EXPECT_EQ(stats.model_fingerprint, base.model_fingerprint)
          << "threads=" << pool->threads()
          << " shared_cache=" << (cache != nullptr);
    }
  }
}

}  // namespace
}  // namespace arrow::te

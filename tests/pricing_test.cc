// Pricing-mode parity and warm-retry accounting on TE-derived LPs.
//
// The corpus is captured with a ScopedSolveObserver during a real
// solve_arrow run (Phase I + Phase II LPs included), so every pricing mode
// is exercised on the exact LPs the paper's pipeline produces, not
// synthetic toys. kDantzig is the oracle: it keeps
// no incremental state, so agreement with it validates the maintained
// reduced costs and Devex weights of kIncremental.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "solver/lp.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace arrow::solver {
namespace {

// Small TE instance whose solve_arrow run donates its LPs.
class PricingCorpus : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (corpus_ != nullptr) return;
    corpus_ = new std::vector<Lp>();
    const topo::Network net = topo::build_b4();
    util::Rng rng(77);
    traffic::TrafficParams tp;
    tp.num_matrices = 1;
    const auto ms = traffic::generate_traffic(net, tp, rng);
    scenario::ScenarioParams sp;
    sp.probability_cutoff = 0.002;
    auto set = scenario::generate_scenarios(net, sp, rng);
    const auto scenarios = scenario::remove_disconnecting(net, set.scenarios);
    te::TunnelParams tun;
    tun.tunnels_per_flow = 4;
    te::TeInput input(net, ms[0], scenarios, tun);
    input.scale_demands(te::max_satisfiable_scale(input));
    input.scale_demands(0.9);
    te::ArrowParams params;
    params.tickets.num_tickets = 3;
    const auto prepared = te::prepare_arrow(input, params, rng);
    {
      ScopedSolveObserver capture([](const Lp& lp, LpSolution& sol) {
        (void)sol;
        if (corpus_->size() < 8) corpus_->push_back(lp);
      });
      const auto sol = te::solve_arrow(input, prepared, params);
      ASSERT_TRUE(sol.optimal);
    }
    ASSERT_FALSE(corpus_->empty());
  }

  static std::vector<Lp>* corpus_;
};

std::vector<Lp>* PricingCorpus::corpus_ = nullptr;

TEST_F(PricingCorpus, AllPricingModesReachTheSameOptimum) {
  for (std::size_t i = 0; i < corpus_->size(); ++i) {
    const Lp& lp = (*corpus_)[i];
    SimplexOptions base;
    const LpSolution oracle = solve_lp(lp, [&] {
      SimplexOptions o = base;
      o.pricing = Pricing::kDantzig;
      return o;
    }());
    ASSERT_EQ(oracle.status, LpStatus::kOptimal) << "lp " << i;
    SimplexOptions opt = base;
    opt.pricing = Pricing::kIncremental;
    const LpSolution sol = solve_lp(lp, opt);
    ASSERT_EQ(sol.status, LpStatus::kOptimal) << "lp " << i;
    const double scale = 1.0 + std::abs(oracle.objective);
    EXPECT_LT(std::abs(sol.objective - oracle.objective), 1e-6 * scale)
        << "lp " << i;
    EXPECT_LT(primal_violation(lp, sol.x), 1e-6) << "lp " << i;
    // The returned basis must be a genuine vertex of the full-space LP.
    EXPECT_EQ(sol.basis.num_basic(), lp.a.rows) << "lp " << i;
  }
}

TEST_F(PricingCorpus, IncrementalPricingDoesLessWorkThanDantzig) {
  // Updating reduced costs from the pivot row must price fewer columns than
  // the full-recomputation oracle on the corpus in aggregate — that is the
  // default mode's reason to exist.
  long long dantzig = 0, incremental = 0;
  for (const Lp& lp : *corpus_) {
    SimplexOptions opt;
    opt.pricing = Pricing::kDantzig;
    dantzig += solve_lp(lp, opt).pricing_candidates;
    opt.pricing = Pricing::kIncremental;
    incremental += solve_lp(lp, opt).pricing_candidates;
  }
  EXPECT_GT(dantzig, 0);
  EXPECT_LT(incremental, dantzig);
}

// Hand-built computational-form LP: structural columns first, one identity
// slack per row appended last (the invariant Model::build_lp guarantees).
// Row: x_coef * x + s = rhs.
Lp single_row_lp(double x_lb, double x_ub, double cost, double rhs,
                 double x_coef = 1.0) {
  Lp lp;
  lp.a.rows = 1;
  lp.a.cols = 2;
  lp.a.col_start = {0, 1, 2};
  lp.a.row_index = {0, 0};
  lp.a.value = {x_coef, 1.0};
  lp.cost = {cost, 0.0};
  lp.lower = {x_lb, 0.0};
  lp.upper = {x_ub, kInf};
  lp.rhs = {rhs};
  return lp;
}

TEST(SingleRowLp, BoundsThatContradictTheRowAreInfeasible) {
  // x in [0,10] but x + s = -1 with s >= 0 forces x <= -1: infeasible.
  const Lp lp = single_row_lp(0.0, 10.0, 1.0, -1.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(WarmRetry, FailedWarmAttemptSecondsAreSummedIntoTheRetry) {
  // 4x + s = 12 at cost -1 ends on the basis {x}. Re-solved at cost +1 and
  // rhs 28 from that basis with pivot_tol 1, the warm attempt's phase-1
  // breakpoint is rejected and it ends in numerical error; the cold retry
  // from the all-slack basis is optimal without a pivot.
  const LpSolution first = solve_lp(single_row_lp(0.0, 5.0, -1.0, 12.0, 4.0));
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  ASSERT_EQ(first.basis.status[0], BasisStatus::kBasic);

  const Lp lp = single_row_lp(0.0, 5.0, 1.0, 28.0, 4.0);
  SimplexOptions opt;
  opt.pivot_tol = 1.0;
  const LpSolution cold = solve_lp(lp, opt);
  const LpSolution retried = solve_lp(lp, opt, &first.basis);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  EXPECT_EQ(retried.status, LpStatus::kOptimal);
  EXPECT_EQ(retried.objective, cold.objective);
  // The retry ran cold, so the result must not claim a warm start.
  EXPECT_FALSE(retried.warm_started);
  // The failed warm attempt's work (4 refactorizations, 8 pricing
  // candidates, no completed pivot) is summed into the retry's.
  EXPECT_EQ(cold.iterations, 0);
  EXPECT_EQ(cold.refactorizations, 1);
  EXPECT_EQ(cold.pricing_candidates, 2);
  EXPECT_EQ(retried.iterations, 0);
  EXPECT_EQ(retried.phase1_iterations, 0);
  EXPECT_EQ(retried.refactorizations, 5);
  EXPECT_EQ(retried.pricing_candidates, 10);

  // Seconds are summed the same way: one synthetic second per phase on the
  // failed attempt lands on top of the retry's own clocks.
  LpSolution failed;
  failed.phase1_seconds = 1.0;
  failed.phase2_seconds = 1.0;
  LpSolution summed = retried;
  summed.add_attempt(failed);
  EXPECT_EQ(summed.phase1_seconds, retried.phase1_seconds + 1.0);
  EXPECT_EQ(summed.phase2_seconds, retried.phase2_seconds + 1.0);
  EXPECT_EQ(summed.refactorizations, retried.refactorizations);
}

// --- Pinned pivot paths on small generated LPs -----------------------------
//
// Each case below pins one solve's iterations, phase-1 iterations,
// refactorizations, pricing candidates, objective bits and final Basis, so
// a change to how the entering column is found (not only which optimum is
// reached) fails here. The LPs are small enough to solve in microseconds but
// walk the pricing paths that the TE corpus reaches only by chance: Bland's
// rule, bound flips of boxed columns, free columns entering in either
// direction, Dantzig pricing and a warm-started re-solve.

// Column kinds the pricing rule tells apart by their nonbasic status.
struct LpShape {
  int dense_rows = 10;
  int boxed = 20;       // [0, u], u in 1..3: flips between its bounds
  int lower_only = 3;   // [0, inf)
  int upper_only = 3;   // (-inf, u]: starts at its upper bound
  int free = 2;         // (-inf, inf): starts nonbasic free at 0
  bool degenerate = false;  // dense rows pass through the all-lower start
  int equality_rows = 0;    // dense rows with lo == hi: a slack fixed at 0
  std::uint64_t seed = 1;
};

// Computational form as Model::build_lp lowers it: the structural columns,
// then one identity slack per row. Every row is ranged,
//   lo_i <= a_i x <= hi_i  as  a_i x + s_i = hi_i,  s_i in [0, hi_i - lo_i],
// and each column without a finite bound on both sides also gets a
// singleton ranged row of its own, which keeps the LP bounded.
Lp generated_lp(const LpShape& shape) {
  util::Rng rng(shape.seed);
  const int structural =
      shape.boxed + shape.lower_only + shape.upper_only + shape.free;
  const int unboxed = structural - shape.boxed;
  const int m = shape.dense_rows + unboxed;
  std::vector<std::vector<double>> rows(
      static_cast<std::size_t>(m),
      std::vector<double>(static_cast<std::size_t>(structural), 0.0));
  Lp lp;
  for (int j = 0; j < structural; ++j) {
    double lo = 0.0, hi = kInf;
    if (j < shape.boxed) {
      hi = rng.uniform_int(1, 3);
    } else if (j < shape.boxed + shape.lower_only) {
      // [0, inf)
    } else if (j < shape.boxed + shape.lower_only + shape.upper_only) {
      lo = -kInf;
      hi = rng.uniform_int(1, 3);
    } else {
      lo = -kInf;
    }
    lp.lower.push_back(lo);
    lp.upper.push_back(hi);
    lp.cost.push_back(rng.uniform_int(-9, 9));
  }
  std::vector<double> row_lo, row_hi;
  for (int i = 0; i < shape.dense_rows; ++i) {
    double sum = 0.0;
    for (int j = 0; j < structural; ++j) {
      if (rng.uniform() < 0.4) {
        const double a = rng.uniform_int(-3, 3);
        rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = a;
        sum += std::abs(a);
      }
    }
    const double hi = shape.degenerate && i % 2 == 0
                          ? 0.0
                          : rng.uniform_int(0, static_cast<int>(sum / 2));
    row_hi.push_back(hi);
    row_lo.push_back(i < shape.equality_rows
                         ? hi
                         : hi - rng.uniform_int(1, 6 + static_cast<int>(sum)));
  }
  for (int k = 0; k < unboxed; ++k) {
    const int j = shape.boxed + k;
    rows[static_cast<std::size_t>(shape.dense_rows + k)]
        [static_cast<std::size_t>(j)] = 1.0;
    const double hi = rng.uniform_int(1, 5);
    row_hi.push_back(hi);
    row_lo.push_back(hi - rng.uniform_int(2, 9));
  }
  const int n = structural + m;
  lp.a.rows = m;
  lp.a.cols = n;
  lp.a.col_start.push_back(0);
  for (int j = 0; j < structural; ++j) {
    for (int i = 0; i < m; ++i) {
      const double a =
          rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (a == 0.0) continue;
      lp.a.row_index.push_back(i);
      lp.a.value.push_back(a);
    }
    lp.a.col_start.push_back(static_cast<int>(lp.a.row_index.size()));
  }
  for (int i = 0; i < m; ++i) {
    lp.a.row_index.push_back(i);
    lp.a.value.push_back(1.0);
    lp.a.col_start.push_back(static_cast<int>(lp.a.row_index.size()));
    lp.cost.push_back(0.0);
    lp.lower.push_back(0.0);
    lp.upper.push_back(row_hi[static_cast<std::size_t>(i)] -
                       row_lo[static_cast<std::size_t>(i)]);
  }
  lp.rhs = row_hi;
  return lp;
}

// One character per column: B basic, L/U at its lower/upper bound, F free.
std::string basis_string(const Basis& basis) {
  std::string s;
  for (BasisStatus st : basis.status) {
    switch (st) {
      case BasisStatus::kBasic: s += 'B'; break;
      case BasisStatus::kNonbasicLower: s += 'L'; break;
      case BasisStatus::kNonbasicUpper: s += 'U'; break;
      case BasisStatus::kNonbasicFree: s += 'F'; break;
    }
  }
  return s;
}

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

struct PivotPin {
  int iterations;
  int phase1_iterations;
  int refactorizations;
  long long pricing_candidates;
  std::uint64_t objective_bits;
  const char* basis;
};

// Checks `sol` against `pin`; on a mismatch prints the pin the solve would
// need, ready to paste.
void expect_pinned(const LpSolution& sol, const PivotPin& pin) {
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  const std::string basis = basis_string(sol.basis);
  const bool same = sol.iterations == pin.iterations &&
                    sol.phase1_iterations == pin.phase1_iterations &&
                    sol.refactorizations == pin.refactorizations &&
                    sol.pricing_candidates == pin.pricing_candidates &&
                    bits(sol.objective) == pin.objective_bits &&
                    basis == pin.basis;
  if (!same) {
    std::printf("  actual: {%d, %d, %d, %lld, 0x%016llxull,\n   \"%s\"}\n",
                sol.iterations, sol.phase1_iterations, sol.refactorizations,
                sol.pricing_candidates,
                static_cast<unsigned long long>(bits(sol.objective)),
                basis.c_str());
  }
  EXPECT_EQ(sol.iterations, pin.iterations);
  EXPECT_EQ(sol.phase1_iterations, pin.phase1_iterations);
  EXPECT_EQ(sol.refactorizations, pin.refactorizations);
  EXPECT_EQ(sol.pricing_candidates, pin.pricing_candidates);
  EXPECT_EQ(bits(sol.objective), pin.objective_bits);
  EXPECT_EQ(basis, pin.basis);
}

// The counts in each comment were read off an instrumented build; they say
// which path the pin covers, not what it asserts.

// 72 phase-2 Bland pivots on a degenerate LP, with refactorizations every 8.
TEST(PricingPins, BlandsRuleThroughout) {
  LpShape shape;
  shape.upper_only = 0;
  shape.degenerate = true;
  shape.seed = 15;
  const Lp lp = generated_lp(shape);
  SimplexOptions opt;
  // Bland's rule engages once the degenerate streak exceeds the threshold;
  // -1 makes every pivot a Bland pivot (0 would wait for the first
  // degenerate one).
  opt.bland_threshold = -1;
  opt.refactor_interval = 8;
  expect_pinned(solve_lp(lp, opt),
                {87, 15, 11, 2395, 0xc060a88888888888ull,
                 "BLUUULUULBUULLUBUBLLBBBBBLBLBUUBBLBLBLLL"});
}

// 7 of its 16 iterations are bound flips, all under maintained reduced
// costs.
TEST(PricingPins, BoxedColumnsFlipBetweenTheirBounds) {
  LpShape shape;
  shape.boxed = 30;
  shape.lower_only = 0;
  shape.upper_only = 0;
  shape.free = 0;
  shape.seed = 20;
  expect_pinned(solve_lp(generated_lp(shape)),
                {16, 0, 1, 192, 0xc0588aaaaaaaaaabull,
                 "ULBUUULLLUUUBLLLLULULUBLLULULLBBBBLBLBBL"});
}

// Free columns enter 3 times upward and 3 times downward in phase 2.
TEST(PricingPins, FreeColumnsEnterInBothDirections) {
  LpShape shape;
  shape.boxed = 12;
  shape.free = 6;
  shape.seed = 34;
  expect_pinned(solve_lp(generated_lp(shape)),
                {21, 1, 1, 429, 0xc0573cb7cb7cb7cbull,
                 "UULULBLLLULLBLBUUUBBBBBBBBLBBBLLULBBBBBBLBBULU"});
}

// Equality rows: a slack fixed at 0 leaves the basis at its lower bound
// and can improve at once, so the leaving column's own status change
// decides the next entering column.
TEST(PricingPins, FixedSlacksLeaveImproving) {
  LpShape shape;
  shape.equality_rows = 2;
  shape.seed = 53;
  expect_pinned(solve_lp(generated_lp(shape)),
                {31, 10, 1, 913, 0xc04f155555555554ull,
                 "LUULULBLULLBLULBLLBLBLLBUBBBUUUBBULBUULBBBBBLB"});
}

// Full pricing on every pass: 4 bound flips, free columns in both
// directions.
TEST(PricingPins, DantzigPricing) {
  LpShape shape;
  shape.seed = 14;
  SimplexOptions opt;
  opt.pricing = Pricing::kDantzig;
  expect_pinned(solve_lp(generated_lp(shape), opt),
                {34, 13, 1, 1610, 0xc062eaaaaaaaaaacull,
                 "ULLULLLULULUULULULLLBBBBBBBBUBBBBLBBUBBLBLUUUB"});
}

// Phase 1 from a caller's basis, then phase 2 across a refactorization.
TEST(PricingPins, WarmStartedResolve) {
  LpShape shape;
  shape.seed = 15;
  const Lp lp = generated_lp(shape);
  SimplexOptions opt;
  opt.refactor_interval = 8;
  const LpSolution cold = solve_lp(lp, opt);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  // The same LP with most dense rows shifted: the old basis is still a
  // basis but no longer feasible.
  Lp moved = lp;
  for (int i = 0; i < shape.dense_rows; ++i) {
    moved.rhs[static_cast<std::size_t>(i)] += i % 3 - 1;
  }
  const LpSolution warm = solve_lp(moved, opt, &cold.basis);
  EXPECT_TRUE(warm.warm_started);
  expect_pinned(warm, {11, 7, 2, 543, 0xc060f8e38e38e38eull,
                       "BUULUBUUBLUBBBLLLLLLLLBUUBBBBBLLBULUULBBBBBUUU"});
}


// Degenerate rows with refactorizations every 8 pivots: basic values
// recomputed over a negative pivot come out -0.0. A step adds w[p] * step
// to every basic value, and an exact zero term turns a -0.0 into +0.0
// unless the term is -0.0 too, so a -0.0 survives some steps and not
// others. In the first LP two of them reach x; in the second the last
// one is cleared by a step whose w is zero there. In the third, columns
// bounded above by -0.0 enter down from it by degenerate steps, so an
// entering column's basic value starts as -0.0 + -1 * 0 = -0.0. Pins the
// bits of x, signs included, beside the pivot path.
TEST(PricingPins, NegativeZeroBasicValues) {
  struct Case {
    std::uint64_t seed;
    int neg_zero_uppers;  // upper-only columns, each bounded by -0.0
    PivotPin pin;
    std::uint64_t x_hash;
    int neg_zeros;
  };
  const Case cases[] = {
      {42, 0,
       {34, 10, 5, 1183, 0xc05a8aaaaaaaaaaaull,
        "LLUULLUUBULULLLLBLLUBBBBUUBBBULBBLLBLBLBLBBBUB"},
       0x466fa0b6d45655b0ull, 2},
      {185, 0,
       {28, 14, 4, 1084, 0xc049400000000000ull,
        "UBULBLLBLLLLLLLLLBULBLBBBBBBLBUULULULBBBLBUBUB"},
       0xcf126458ff8be678ull, 0},
      {2, 6,
       {36, 4, 5, 1351, 0xc06527a8d9df51b4ull,
        "LLULBULULUBUBUULLUBULLLUUBBUBBBBULLBLUBLLBBBBBUBBUBB"},
       0x12a178701a78324aull, 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.seed);
    LpShape shape;
    shape.degenerate = true;
    shape.seed = c.seed;
    if (c.neg_zero_uppers > 0) shape.upper_only = c.neg_zero_uppers;
    Lp lp = generated_lp(shape);
    for (int k = 0; k < c.neg_zero_uppers; ++k) {
      lp.upper[static_cast<std::size_t>(shape.boxed + shape.lower_only + k)] =
          -0.0;
    }
    SimplexOptions opt;
    opt.refactor_interval = 8;
    const LpSolution sol = solve_lp(lp, opt);
    expect_pinned(sol, c.pin);
    std::uint64_t x_hash = 0xcbf29ce484222325ull;
    int neg_zeros = 0;
    for (double v : sol.x) {
      x_hash = (x_hash ^ bits(v)) * 0x100000001b3ull;
      neg_zeros += v == 0.0 && std::signbit(v);
    }
    EXPECT_EQ(x_hash, c.x_hash);
    EXPECT_EQ(neg_zeros, c.neg_zeros);
  }
}

}  // namespace
}  // namespace arrow::solver

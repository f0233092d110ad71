// Unit and property tests for the LP/MIP solver substrate.
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "lp_bits.h"
#include "solver/lp.h"
#include "solver/model.h"
#include "util/rng.h"

namespace arrow::solver {
namespace {

TEST(Model, SimpleMaximization) {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, kInf, 3);
  const auto y = m.add_var(0, kInf, 2);
  m.add_constr(LinExpr(x) + LinExpr(y), Sense::kLe, 4);
  m.add_constr(LinExpr(x) + 3.0 * LinExpr(y), Sense::kLe, 6);
  const auto res = m.solve();
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 12.0, 1e-7);
  EXPECT_NEAR(m.value(x), 4.0, 1e-7);
  EXPECT_NEAR(m.value(y), 0.0, 1e-7);
}

TEST(Model, EqualityAndBounds) {
  Model m;
  const auto x = m.add_var(0, 10, 1);
  const auto y = m.add_var(0, 10, 1);
  m.add_constr(LinExpr(x) + LinExpr(y), Sense::kGe, 2);
  m.add_constr(LinExpr(x) - LinExpr(y), Sense::kEq, 0.5);
  const auto res = m.solve();
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 2.0, 1e-7);
  EXPECT_NEAR(m.value(x), 1.25, 1e-7);
  EXPECT_NEAR(m.value(y), 0.75, 1e-7);
}

TEST(Model, DetectsInfeasible) {
  Model m;
  const auto x = m.add_var(0, kInf, 1);
  m.add_constr(LinExpr(x), Sense::kLe, 1);
  m.add_constr(LinExpr(x), Sense::kGe, 2);
  EXPECT_EQ(m.solve().status, SolveStatus::kInfeasible);
}

TEST(Model, DetectsUnbounded) {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, kInf, 1);
  m.add_constr(LinExpr(x), Sense::kGe, 0);
  EXPECT_EQ(m.solve().status, SolveStatus::kUnbounded);
}

TEST(Model, FreeVariables) {
  Model m;
  const auto x = m.add_var(-kInf, kInf, 0);
  const auto y = m.add_var(-kInf, 100, 1);
  m.add_constr(LinExpr(y) - LinExpr(x), Sense::kGe, -3);
  m.add_constr(LinExpr(y) + LinExpr(x), Sense::kGe, 3);
  const auto res = m.solve();
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 0.0, 1e-7);
  EXPECT_NEAR(m.value(x), 3.0, 1e-6);
}

TEST(Model, NegativeLowerBounds) {
  Model m;
  const auto x = m.add_var(-5, 5, 1);
  m.add_constr(LinExpr(x), Sense::kGe, -3);
  const auto res = m.solve();
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), -3.0, 1e-7);
}

TEST(Model, FixedVariable) {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(2, 2, 1);
  const auto y = m.add_var(0, kInf, 1);
  m.add_constr(LinExpr(x) + LinExpr(y), Sense::kLe, 7);
  const auto res = m.solve();
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), 2.0, 1e-7);
  EXPECT_NEAR(m.value(y), 5.0, 1e-7);
}

TEST(Model, NoConstraints) {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, 4, 2);
  const auto res = m.solve();
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), 4.0, 1e-9);
}

TEST(Model, DualsHaveCorrectSigns) {
  // max 3x + 2y st x + y <= 4 (binding), x <= 10 (slack)
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, kInf, 3);
  const auto y = m.add_var(0, kInf, 2);
  m.add_constr(LinExpr(x) + LinExpr(y), Sense::kLe, 4);
  m.add_constr(LinExpr(x), Sense::kLe, 10);
  ASSERT_EQ(m.solve().status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.dual(0), 3.0, 1e-6);  // marginal value of capacity
  EXPECT_NEAR(m.dual(1), 0.0, 1e-6);  // non-binding
}

// One row of every add_constr case: an unsorted expression with a variable
// repeated three times, a pair that cancels to 0, a -0.0 coefficient and a
// constant. Duplicates sum in order of appearance starting from +0.0
// ((0.1 + 0.2) + 0.3 is 0.6000000000000001, not 0.6), zero sums are
// dropped and the constant folds into the rhs. Under maximize the
// zero-objective column lowers to a -0.0 cost.
Model pinned_merge_model() {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, 4, 1.5);
  const auto y = m.add_var(-1, 3, 0);
  const auto z = m.add_var(0, kInf, 2);
  const auto w = m.add_var(-kInf, 1, -1);
  LinExpr e;
  e.add_term(z, 0.1);
  e.add_term(w, 0.7);
  e.add_term(x, 2.0);
  e.add_term(z, 0.2);
  e.add_term(y, -0.0);
  e.add_term(w, -0.7);
  e.add_term(z, 0.3);
  e += 2.5;
  m.add_constr(e, Sense::kLe, 10);
  LinExpr f = 3.0 * LinExpr(y) + LinExpr(x);
  f.add_term(y, -0.0);
  m.add_constr(f, Sense::kGe, -1);
  m.add_constr(LinExpr(w) + LinExpr(z) - 0.5, Sense::kEq, 1);
  return m;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

// What the solver sees of pinned_merge_model, bit for bit, and its
// fingerprint.
TEST(ModelPins, AddConstrMergesUnsortedTerms) {
  Model m = pinned_merge_model();
  ASSERT_EQ(m.num_constrs(), 3);
  EXPECT_EQ(m.fingerprint(), 0x50d4a2ba0d645aacULL);
  Lp seen;
  int solves = 0;
  {
    ScopedSolveObserver capture([&](const Lp& lp, LpSolution&) {
      ++solves;
      seen = lp;
    });
    m.solve();
  }
  ASSERT_EQ(solves, 1);
  EXPECT_EQ(seen.a.rows, 3);
  EXPECT_EQ(seen.a.cols, 7);
  EXPECT_EQ(seen.a.col_start, (std::vector<int>{0, 2, 3, 5, 6, 7, 8, 9}));
  EXPECT_EQ(seen.a.row_index, (std::vector<int>{0, 1, 1, 0, 2, 2, 0, 1, 2}));
  constexpr std::uint64_t kOne = 0x3ff0000000000000ULL;
  constexpr std::uint64_t kPosInf = 0x7ff0000000000000ULL;
  constexpr std::uint64_t kNegInf = 0xfff0000000000000ULL;
  EXPECT_EQ(bits_of(seen.a.value),
            (std::vector<std::uint64_t>{0x4000000000000000ULL, kOne,
                                        0x4008000000000000ULL,
                                        0x3fe3333333333334ULL, kOne, kOne,
                                        kOne, kOne, kOne}));
  EXPECT_EQ(bits_of(seen.cost),
            (std::vector<std::uint64_t>{0xbff8000000000000ULL,
                                        0x8000000000000000ULL,
                                        0xc000000000000000ULL, kOne, 0, 0,
                                        0}));
  EXPECT_EQ(bits_of(seen.lower),
            (std::vector<std::uint64_t>{0, 0xbff0000000000000ULL, 0, kNegInf,
                                        0, kNegInf, 0}));
  EXPECT_EQ(bits_of(seen.upper),
            (std::vector<std::uint64_t>{0x4010000000000000ULL,
                                        0x4008000000000000ULL, kPosInf, kOne,
                                        kPosInf, 0, 0}));
  EXPECT_EQ(bits_of(seen.rhs),
            (std::vector<std::uint64_t>{0x401e000000000000ULL,
                                        0xbff0000000000000ULL,
                                        0x3ff8000000000000ULL}));
}

// The Lps one solve() hands the simplex, in order.
std::vector<Lp> lowered_lps(Model& m) {
  std::vector<Lp> seen;
  ScopedSolveObserver capture(
      [&](const Lp& lp, LpSolution&) { seen.push_back(lp); });
  m.solve();
  return seen;
}

Model lowered_once_base() {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, 4, 1);
  const auto y = m.add_var(0, kInf, 2);
  const auto z = m.add_var(-1, 3, 0.5);
  m.add_constr(LinExpr(x) + LinExpr(y) + LinExpr(z), Sense::kLe, 6);
  m.add_constr(LinExpr(y) - 2.0 * LinExpr(z), Sense::kGe, -2);
  m.add_constr(LinExpr(x) + LinExpr(z), Sense::kEq, 2);
  return m;
}

// Each edit between two solves of one model, in order: the ones that write
// through to the resident Lp, then the ones that mark it stale.
const std::vector<void (*)(Model&)>& lowered_once_edits() {
  static const std::vector<void (*)(Model&)> edits = {
      [](Model& m) { m.set_bounds(VarId{1}, 0.5, 2); },
      [](Model& m) { m.set_rhs(0, 7); },
      // Under maximize a zero objective lowers to a -0.0 cost.
      [](Model& m) { m.set_objective_coeff(VarId{0}, 0.0); },
      [](Model& m) { m.set_minimize(); },
      [](Model& m) { m.add_var(0, 3, -1); },
      [](Model& m) {
        m.add_constr(LinExpr(VarId{3}) - LinExpr(VarId{1}), Sense::kLe, 1);
      },
      [](Model& m) { m.set_bounds(VarId{3}, 0, 1); },
  };
  return edits;
}

// One model solved after every edit sees, each time, the Lp a model built
// fresh with the same edits lowers on its first solve.
TEST(ModelLoweredOnce, EditsBetweenSolvesMatchAFreshBuild) {
  Model resident = lowered_once_base();
  ASSERT_EQ(lowered_lps(resident).size(), 1u);
  const auto& edits = lowered_once_edits();
  for (std::size_t k = 0; k < edits.size(); ++k) {
    SCOPED_TRACE(k);
    edits[k](resident);
    Model fresh = lowered_once_base();
    for (std::size_t e = 0; e <= k; ++e) edits[e](fresh);
    const auto seen = lowered_lps(resident);
    const auto want = lowered_lps(fresh);
    ASSERT_EQ(seen.size(), 1u);
    ASSERT_EQ(want.size(), 1u);
    test::expect_byte_equal(seen[0], want[0]);
    EXPECT_EQ(resident.fingerprint(), fresh.fingerprint());
  }
}

// Branch-and-bound solves each node under its own bounds: the node Lps
// differ, each is the Lp a fresh model with that node's bounds lowers, and
// the model's own bounds are back once the search ends.
TEST(ModelLoweredOnce, MipNodesLowerTheirOwnBounds) {
  auto knapsack = [] {
    Model m;
    m.set_maximize();
    const auto a = m.add_var(0, 3, 5, VarType::kInteger);
    const auto b = m.add_var(0, 3, 4, VarType::kInteger);
    const auto c = m.add_var(0, 1, 3, VarType::kContinuous);
    m.add_constr(2.0 * LinExpr(a) + 3.0 * LinExpr(b) + LinExpr(c), Sense::kLe,
                 7.5);
    m.add_constr(LinExpr(a) - LinExpr(b), Sense::kLe, 1.5);
    return m;
  };
  Model mip = knapsack();
  const auto nodes = lowered_lps(mip);
  ASSERT_GT(nodes.size(), 2u);
  bool branched = false;
  for (const Lp& node : nodes) {
    branched = branched || !test::same_bits(node.lower, nodes[0].lower) ||
               !test::same_bits(node.upper, nodes[0].upper);
    Model fresh = knapsack();
    for (int j = 0; j < fresh.num_vars(); ++j) {
      fresh.set_bounds(VarId{j}, node.lower[static_cast<std::size_t>(j)],
                       node.upper[static_cast<std::size_t>(j)]);
    }
    const auto root = lowered_lps(fresh);
    ASSERT_FALSE(root.empty());
    test::expect_byte_equal(node, root[0]);
  }
  EXPECT_TRUE(branched);
  const auto again = lowered_lps(mip);
  ASSERT_EQ(again.size(), nodes.size());
  test::expect_byte_equal(again[0], nodes[0]);
}

TEST(Mip, Knapsack) {
  Model m;
  m.set_maximize();
  const auto a = m.add_binary(10);
  const auto b = m.add_binary(6);
  const auto c = m.add_binary(4);
  m.add_constr(5.0 * LinExpr(a) + 4.0 * LinExpr(b) + 3.0 * LinExpr(c),
               Sense::kLe, 10);
  const auto res = m.solve();
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 16.0, 1e-6);
  EXPECT_GT(res.bb_nodes, 0);
}

TEST(Mip, IntegerVariablesRespectBounds) {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, 7.5, 1, VarType::kInteger);
  m.add_constr(LinExpr(x), Sense::kLe, 6.4);
  const auto res = m.solve();
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), 6.0, 1e-6);
}

TEST(Mip, InfeasibleIntegerProblem) {
  Model m;
  const auto x = m.add_var(0, 1, 1, VarType::kInteger);
  m.add_constr(LinExpr(x), Sense::kGe, 0.4);
  m.add_constr(LinExpr(x), Sense::kLe, 0.6);
  EXPECT_EQ(m.solve().status, SolveStatus::kInfeasible);
}

TEST(Mip, MatchesLpWhenRelaxationIntegral) {
  // Totally unimodular assignment-like problem: relaxation is integral.
  Model mip;
  mip.set_maximize();
  std::vector<std::vector<VarId>> x(2, std::vector<VarId>(2));
  const double profit[2][2] = {{3, 5}, {4, 1}};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      x[i][j] = mip.add_binary(profit[i][j]);
    }
  }
  for (int i = 0; i < 2; ++i) {
    LinExpr row, col;
    for (int j = 0; j < 2; ++j) {
      row += LinExpr(x[i][j]);
      col += LinExpr(x[j][i]);
    }
    mip.add_constr(row, Sense::kEq, 1);
    mip.add_constr(col, Sense::kEq, 1);
  }
  const auto res = mip.solve();
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, 9.0, 1e-6);  // 5 + 4
}

// Property test: solutions satisfy primal feasibility and LP duality
// (complementary slackness implies equal primal/dual objectives).
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, OptimalSolutionsAreFeasibleAndDualityHolds) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = rng.uniform_int(2, 12);
    const int mrows = rng.uniform_int(1, 10);
    Model m;
    m.set_maximize();
    std::vector<VarId> vars;
    std::vector<double> obj;
    for (int j = 0; j < n; ++j) {
      const double lo = rng.uniform(-4, 0);
      const double hi = lo + rng.uniform(0, 6);
      obj.push_back(rng.uniform(-5, 5));
      vars.push_back(m.add_var(lo, hi, obj.back()));
    }
    std::vector<std::vector<double>> rows;
    std::vector<double> rhs;
    std::vector<Sense> senses;
    for (int i = 0; i < mrows; ++i) {
      LinExpr e;
      std::vector<double> coeffs(static_cast<std::size_t>(n), 0.0);
      for (int j = 0; j < n; ++j) {
        if (rng.bernoulli(0.6)) {
          coeffs[static_cast<std::size_t>(j)] = rng.uniform(-3, 3);
          e.add_term(vars[static_cast<std::size_t>(j)],
                     coeffs[static_cast<std::size_t>(j)]);
        }
      }
      const double r = rng.uniform(-5, 8);
      const Sense s = rng.bernoulli(0.8) ? Sense::kLe : Sense::kGe;
      m.add_constr(e, s, r);
      rows.push_back(coeffs);
      rhs.push_back(r);
      senses.push_back(s);
    }
    const auto res = m.solve();
    if (res.status != SolveStatus::kOptimal) continue;
    // Primal feasibility.
    for (int i = 0; i < mrows; ++i) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        lhs += rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
               m.value(vars[static_cast<std::size_t>(j)]);
      }
      if (senses[static_cast<std::size_t>(i)] == Sense::kLe) {
        EXPECT_LE(lhs, rhs[static_cast<std::size_t>(i)] + 1e-5);
      } else {
        EXPECT_GE(lhs, rhs[static_cast<std::size_t>(i)] - 1e-5);
      }
    }
    // Objective consistency.
    double obj_check = 0.0;
    for (int j = 0; j < n; ++j) {
      obj_check += obj[static_cast<std::size_t>(j)] *
                   m.value(vars[static_cast<std::size_t>(j)]);
    }
    EXPECT_NEAR(obj_check, res.objective, 1e-6 * (1.0 + std::abs(obj_check)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(0, 8));

// Property: LP relaxation bounds the MIP optimum.
class RandomMipTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMipTest, RelaxationBoundsHold) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.uniform_int(2, 6);
    Model mip, lp;
    mip.set_maximize();
    lp.set_maximize();
    std::vector<VarId> xi, xl;
    for (int j = 0; j < n; ++j) {
      const double c = rng.uniform(0, 5);
      xi.push_back(mip.add_binary(c));
      xl.push_back(lp.add_var(0, 1, c));
    }
    for (int i = 0; i < 3; ++i) {
      LinExpr ei, el;
      for (int j = 0; j < n; ++j) {
        const double c = rng.uniform(0, 4);
        ei.add_term(xi[static_cast<std::size_t>(j)], c);
        el.add_term(xl[static_cast<std::size_t>(j)], c);
      }
      const double r = rng.uniform(1, 8);
      mip.add_constr(ei, Sense::kLe, r);
      lp.add_constr(el, Sense::kLe, r);
    }
    const auto ri = mip.solve();
    const auto rl = lp.solve();
    ASSERT_EQ(rl.status, SolveStatus::kOptimal);
    if (ri.status != SolveStatus::kOptimal) continue;
    EXPECT_LE(ri.objective, rl.objective + 1e-6);
    // MIP solution must be integral.
    for (const auto& v : xi) {
      const double val = mip.value(v);
      EXPECT_NEAR(val, std::round(val), 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMipTest, ::testing::Range(0, 6));


// Property: Devex and Dantzig pricing reach the same optimum (they may take
// different paths through the polytope).
class PricingEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PricingEquivalence, SameObjectiveEitherRule) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 2);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.uniform_int(2, 10);
    const int mrows = rng.uniform_int(1, 8);
    Model devex, dantzig;
    devex.set_maximize();
    dantzig.set_maximize();
    dantzig.simplex_options().pricing = Pricing::kDantzig;
    std::vector<VarId> xv, xd;
    for (int j = 0; j < n; ++j) {
      const double lo = rng.uniform(-2, 0);
      const double hi = lo + rng.uniform(0, 5);
      const double c = rng.uniform(-4, 4);
      xv.push_back(devex.add_var(lo, hi, c));
      xd.push_back(dantzig.add_var(lo, hi, c));
    }
    for (int i = 0; i < mrows; ++i) {
      LinExpr ev, ed;
      for (int j = 0; j < n; ++j) {
        if (rng.bernoulli(0.6)) {
          const double c = rng.uniform(-3, 3);
          ev.add_term(xv[static_cast<std::size_t>(j)], c);
          ed.add_term(xd[static_cast<std::size_t>(j)], c);
        }
      }
      const double r = rng.uniform(-4, 6);
      const Sense sense = rng.bernoulli(0.8) ? Sense::kLe : Sense::kGe;
      devex.add_constr(ev, sense, r);
      dantzig.add_constr(ed, sense, r);
    }
    const auto rv = devex.solve();
    const auto rd = dantzig.solve();
    ASSERT_EQ(rv.status, rd.status);
    if (rv.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(rv.objective, rd.objective,
                  1e-6 * (1.0 + std::abs(rd.objective)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PricingEquivalence, ::testing::Range(0, 6));

}  // namespace
}  // namespace arrow::solver

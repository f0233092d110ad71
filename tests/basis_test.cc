// Direct tests of the LU basis engine against dense linear algebra, plus
// LinExpr/model-building edge cases.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "solver/basis.h"
#include "solver/linexpr.h"
#include "solver/model.h"
#include "util/rng.h"

namespace arrow::solver {
namespace {

// Dense solve of A x = b via Gaussian elimination (reference).
std::vector<double> dense_solve(std::vector<std::vector<double>> a,
                                std::vector<double> b) {
  const int n = static_cast<int>(b.size());
  for (int c = 0; c < n; ++c) {
    int piv = c;
    for (int r = c + 1; r < n; ++r) {
      if (std::abs(a[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]) >
          std::abs(a[static_cast<std::size_t>(piv)][static_cast<std::size_t>(c)])) {
        piv = r;
      }
    }
    std::swap(a[static_cast<std::size_t>(c)], a[static_cast<std::size_t>(piv)]);
    std::swap(b[static_cast<std::size_t>(c)], b[static_cast<std::size_t>(piv)]);
    for (int r = 0; r < n; ++r) {
      if (r == c) continue;
      const double f = a[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] /
                       a[static_cast<std::size_t>(c)][static_cast<std::size_t>(c)];
      for (int k = c; k < n; ++k) {
        a[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)] -=
            f * a[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
      }
      b[static_cast<std::size_t>(r)] -= f * b[static_cast<std::size_t>(c)];
    }
  }
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        b[static_cast<std::size_t>(i)] /
        a[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
  }
  return x;
}

std::vector<LuBasis::Column> to_columns(
    const std::vector<std::vector<double>>& dense) {
  const int n = static_cast<int>(dense.size());
  std::vector<LuBasis::Column> cols(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      if (dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] !=
          0.0) {
        cols[static_cast<std::size_t>(j)].emplace_back(
            i, dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
      }
    }
  }
  return cols;
}

TEST(LuBasis, IdentityFactorization) {
  LuBasis basis;
  std::vector<LuBasis::Column> cols = {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}};
  ASSERT_TRUE(basis.factorize(3, cols, 1e-10));
  std::vector<double> x = {3.0, -1.0, 2.0};
  basis.ftran(x);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], -1.0, 1e-12);
  EXPECT_NEAR(x[2], 2.0, 1e-12);
  std::vector<double> y = {1.0, 2.0, 3.0};
  basis.btran(y);
  EXPECT_NEAR(y[1], 2.0, 1e-12);
}

TEST(LuBasis, DetectsSingularMatrix) {
  LuBasis basis;
  // Two identical columns.
  std::vector<LuBasis::Column> cols = {
      {{0, 1.0}, {1, 2.0}}, {{0, 1.0}, {1, 2.0}}};
  EXPECT_FALSE(basis.factorize(2, cols, 1e-10));

  // A zero column at the highest position (empty, or one explicit 0.0): it
  // ties with the unit columns on count, loses the tie-break to them, and
  // has no usable entry once it is chosen.
  EXPECT_FALSE(basis.factorize(
      4, {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}, {3, 1.0}}, {}}, 1e-10));
  EXPECT_FALSE(basis.factorize(
      4, {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}, {3, 1.0}}, {{3, 0.0}}}, 1e-10));

  // Singular only partway through elimination: the third column is the sum
  // of the first two, so its update cancels exactly to an empty column while
  // other columns are still active.
  EXPECT_FALSE(basis.factorize(
      5,
      {{{0, 2.0}, {1, 1.0}},
       {{1, 1.0}, {2, 4.0}},
       {{0, 2.0}, {1, 2.0}, {2, 4.0}},
       {{3, 1.0}, {4, 1.0}},
       {{3, 1.0}, {4, 3.0}}},
      1e-10));
  // Two columns whose only entry is in row 0: once row 0 is eliminated the
  // second has no active row left.
  EXPECT_FALSE(basis.factorize(
      4, {{{0, 1.0}}, {{0, 3.0}}, {{1, 1.0}, {2, 1.0}}, {{2, 2.0}, {3, 1.0}}},
      1e-10));
  // A remaining entry above the drop tolerance but below pivot_tol.
  EXPECT_FALSE(basis.factorize(
      3, {{{0, 1.0}, {1, 1.0}}, {{0, 1.0}, {1, 1.0 + 1e-11}}, {{2, 1.0}}},
      1e-10));

  // The same object still factorizes a good basis afterwards.
  ASSERT_TRUE(basis.factorize(2, {{{0, 1.0}}, {{1, 2.0}}}, 1e-10));
  std::vector<double> x = {1.0, 1.0};
  basis.ftran(x);
  EXPECT_EQ(x[1], 0.5);
}

class LuBasisRandom : public ::testing::TestWithParam<int> {};

TEST_P(LuBasisRandom, FtranBtranMatchDenseSolves) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 3);
  const int n = rng.uniform_int(3, 25);
  std::vector<std::vector<double>> dense(
      static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(n), 0.0));
  // Random sparse nonsingular-ish matrix: diagonal + random off-diagonals.
  for (int i = 0; i < n; ++i) {
    dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] =
        rng.uniform(1.0, 3.0) * (rng.bernoulli(0.5) ? 1 : -1);
    for (int j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.2)) {
        dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            rng.uniform(-2.0, 2.0);
      }
    }
  }
  LuBasis basis;
  ASSERT_TRUE(basis.factorize(n, to_columns(dense), 1e-10));

  // FTRAN: solve B x = b.
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-5.0, 5.0);
  std::vector<double> x = b;
  basis.ftran(x);
  const auto x_ref = dense_solve(dense, b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], x_ref[static_cast<std::size_t>(i)],
                1e-8 * (1.0 + std::abs(x_ref[static_cast<std::size_t>(i)])));
  }

  // BTRAN: solve B' y = c  <=>  y = dense_solve(transpose, c).
  std::vector<double> c(static_cast<std::size_t>(n));
  for (auto& v : c) v = rng.uniform(-5.0, 5.0);
  std::vector<double> y = c;
  basis.btran(y);
  std::vector<std::vector<double>> transposed(
      static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      transposed[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          dense[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
    }
  }
  const auto y_ref = dense_solve(transposed, c);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], y_ref[static_cast<std::size_t>(i)],
                1e-8 * (1.0 + std::abs(y_ref[static_cast<std::size_t>(i)])));
  }
}

TEST_P(LuBasisRandom, UpdateMatchesRefactorization) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 11);
  const int n = rng.uniform_int(4, 15);
  std::vector<std::vector<double>> dense(
      static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] =
        rng.uniform(1.0, 3.0);
    for (int j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.25)) {
        dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            rng.uniform(-1.5, 1.5);
      }
    }
  }
  LuBasis basis;
  ASSERT_TRUE(basis.factorize(n, to_columns(dense), 1e-10));

  // Replace a column via update(); verify B_new^{-1} b against a fresh
  // factorization of the modified matrix.
  const int pos = rng.uniform_int(0, n - 1);
  std::vector<double> newcol(static_cast<std::size_t>(n));
  for (auto& v : newcol) v = rng.bernoulli(0.4) ? rng.uniform(-2.0, 2.0) : 0.0;
  newcol[static_cast<std::size_t>(pos)] += 2.5;  // keep it nonsingular-ish

  std::vector<double> w = newcol;
  std::vector<int> w_nz;
  basis.ftran(w, &w_nz);
  if (!basis.update(pos, w, w_nz, 1e-8)) GTEST_SKIP() << "tiny pivot";

  auto modified = dense;
  for (int i = 0; i < n; ++i) {
    modified[static_cast<std::size_t>(i)][static_cast<std::size_t>(pos)] =
        newcol[static_cast<std::size_t>(i)];
  }
  LuBasis fresh;
  ASSERT_TRUE(fresh.factorize(n, to_columns(modified), 1e-10));

  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-3.0, 3.0);
  std::vector<double> x_updated = b;
  basis.ftran(x_updated);
  std::vector<double> x_fresh = b;
  fresh.ftran(x_fresh);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x_updated[static_cast<std::size_t>(i)],
                x_fresh[static_cast<std::size_t>(i)],
                1e-7 * (1.0 + std::abs(x_fresh[static_cast<std::size_t>(i)])));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuBasisRandom, ::testing::Range(0, 10));

// --- pinned factorizations ---------------------------------------------------
//
// The elimination's pivot order and floating-point operation order are part
// of the solver's contract: they fix every pivot the simplex takes, and so
// every golden RunReport. These cases pin factor_nnz() and the exact bits of
// one FTRAN and one BTRAN on seeded simplex-like bases (mostly unit slack
// columns). A faster factorize must leave every value below unchanged.

std::uint64_t bit_hash(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  return h;
}

struct Pin {
  std::size_t factor_nnz;
  std::uint64_t ftran;
  std::uint64_t btran;
};

// Factorizes `cols` into `basis`, then runs FTRAN and BTRAN on seeded
// dense vectors.
Pin pin_into(LuBasis& basis, const std::vector<LuBasis::Column>& cols,
             std::uint64_t seed) {
  const int m = static_cast<int>(cols.size());
  if (!basis.factorize(m, cols, 1e-8)) {
    ADD_FAILURE() << "pinned basis reported singular";
    return {0, 0, 0};
  }
  util::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(m));
  for (auto& v : x) v = rng.uniform(-5.0, 5.0);
  std::vector<double> y(static_cast<std::size_t>(m));
  for (auto& v : y) v = rng.uniform(-5.0, 5.0);
  basis.ftran(x);
  basis.btran(y);
  return {basis.factor_nnz(), bit_hash(x), bit_hash(y)};
}

Pin pin_of(const std::vector<LuBasis::Column>& cols, std::uint64_t seed) {
  LuBasis basis;
  return pin_into(basis, cols, seed);
}

void expect_pin(const Pin& got, const Pin& want) {
  EXPECT_EQ(got.factor_nnz, want.factor_nnz);
  EXPECT_EQ(got.ftran, want.ftran);
  EXPECT_EQ(got.btran, want.btran);
}

void shuffle_columns(std::vector<LuBasis::Column>& cols, util::Rng& rng) {
  for (int i = static_cast<int>(cols.size()) - 1; i > 0; --i) {
    std::swap(cols[static_cast<std::size_t>(i)],
              cols[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
}

// One column per row: the unit slack e_i, or (with probability
// `structural`) a column with a dominant entry in row i plus `extra`
// distinct off-diagonal rows whose magnitudes come from `mags`. Entries are
// sorted by row, as the simplex builds them from the CSC matrix.
std::vector<LuBasis::Column> slack_heavy(util::Rng& rng, int m,
                                         double structural, int extra,
                                         const std::vector<double>& mags) {
  std::vector<LuBasis::Column> cols(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    auto& col = cols[static_cast<std::size_t>(i)];
    if (!rng.bernoulli(structural)) {
      col.emplace_back(i, 1.0);
      continue;
    }
    col.emplace_back(i, rng.uniform(1.0, 3.0) * (rng.bernoulli(0.5) ? 1 : -1));
    while (static_cast<int>(col.size()) < extra + 1) {
      const int r = rng.uniform_int(0, m - 1);
      bool dup = false;
      for (const auto& [ri, v] : col) dup = dup || ri == r;
      if (dup) continue;
      const double mag =
          mags[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(mags.size()) - 1))];
      col.emplace_back(r, mag * (rng.bernoulli(0.5) ? 1 : -1));
    }
    std::sort(col.begin(), col.end());
  }
  return cols;
}

TEST(LuBasisPinned, ColumnCountTies) {
  // Every structural column has exactly three entries and every slack one:
  // the pivot-column choice is decided by the lowest-index tie-break.
  util::Rng rng(1301);
  auto cols = slack_heavy(rng, 160, 0.35, 2, {0.25, 0.5, 0.75, 1.0});
  shuffle_columns(cols, rng);
  expect_pin(pin_of(cols, 7),
             {267, 3795324842841632908ull, 13902949488310850514ull});
}

TEST(LuBasisPinned, SingletonsAtHighPositions) {
  // Structural columns first, unit slacks last: the first singleton column
  // sits at a high position.
  util::Rng rng(1302);
  auto cols = slack_heavy(rng, 140, 0.55, 3, {0.3, 0.9, 1.7});
  std::stable_partition(cols.begin(), cols.end(),
                        [](const LuBasis::Column& c) { return c.size() > 1; });
  expect_pin(pin_of(cols, 8),
             {436, 14675359704603605690ull, 2537582016141192141ull});
}

TEST(LuBasisPinned, FillInWithExactCancellation) {
  // Dyadic 3x3 blocks whose elimination cancels exactly: after pivoting on
  // a = (1, 2, 0) the fill of b = (1, 2, 1) in its second row is 2 - 2 = 0.
  // Blocks sit among unit slacks at shuffled positions.
  util::Rng rng(1303);
  const int m = 150;
  std::vector<int> rows(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) rows[static_cast<std::size_t>(i)] = i;
  for (int i = m - 1; i > 0; --i) {
    std::swap(rows[static_cast<std::size_t>(i)],
              rows[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  std::vector<LuBasis::Column> cols;
  int next = 0;
  for (int b = 0; b < 30; ++b, next += 3) {
    const int r0 = rows[static_cast<std::size_t>(next)];
    const int r1 = rows[static_cast<std::size_t>(next + 1)];
    const int r2 = rows[static_cast<std::size_t>(next + 2)];
    const double s = rng.bernoulli(0.5) ? 0.5 : 4.0;
    LuBasis::Column a = {{r0, s}, {r1, 2 * s}};
    LuBasis::Column bc = {{r0, s}, {r1, 2 * s}, {r2, s}};
    LuBasis::Column c = {{r1, s}, {r2, 4 * s}};
    for (auto* col : {&a, &bc, &c}) {
      std::sort(col->begin(), col->end());
      cols.push_back(*col);
    }
  }
  for (; next < m; ++next) {
    cols.push_back({{rows[static_cast<std::size_t>(next)], 1.0}});
  }
  shuffle_columns(cols, rng);
  expect_pin(pin_of(cols, 9),
             {257, 2822847265950929054ull, 4837857618593524470ull});
}

TEST(LuBasisPinned, LongColumns) {
  // A few columns touch a third of the rows each, as a Phase I flow
  // variable does across its scenario rows. Most of their updates come
  // from singleton pivot columns and only remove the pivot row; a few come
  // from pivots with multipliers and rebuild the column.
  util::Rng rng(1305);
  const int m = 240;
  auto cols = slack_heavy(rng, m, 0.3, 2, {0.5, 1.0, 1.5});
  for (int k = 0; k < 6; ++k) {
    const int j = rng.uniform_int(0, m - 1);
    auto& col = cols[static_cast<std::size_t>(j)];
    col = {{j, rng.uniform(4.0, 6.0)}};
    for (int r = 0; r < m; ++r) {
      if (r != j && rng.bernoulli(0.35)) {
        col.emplace_back(r, rng.uniform(-1.0, 1.0));
      }
    }
    std::sort(col.begin(), col.end());
  }
  shuffle_columns(cols, rng);
  expect_pin(pin_of(cols, 11),
             {890, 15908866257340961522ull, 3487349598603009913ull});
}

TEST(LuBasisPinned, RefillAfterExactCancellation) {
  // Power-of-two values make eliminations cancel exactly. In this seeded
  // basis a column loses an entry to cancellation, gets fill-in in the same
  // row later, and so is listed twice for that row when a singleton pivot
  // column eliminates it: the second visit must find no entry to update.
  util::Rng rng(467);
  auto cols = slack_heavy(rng, 30, 0.6, 3, {0.5, 1.0, 2.0});
  for (auto& col : cols) {
    for (auto& [r, v] : col) {
      v = std::copysign(std::exp2(std::round(std::log2(std::abs(v)))), v);
    }
  }
  shuffle_columns(cols, rng);
  expect_pin(pin_of(cols, 99),
             {135, 16275456546190593302ull, 5744160565292300733ull});
}

TEST(LuBasisPinned, EntriesAroundDropTolerance) {
  // Off-diagonal magnitudes straddle the 1e-12 drop tolerance, both as
  // inputs and as L multipliers (v / d with |d| in [1, 3]), so some fill is
  // dropped and some kept.
  util::Rng rng(1304);
  auto cols = slack_heavy(rng, 150, 0.5, 3,
                          {5e-13, 9e-13, 1.1e-12, 2e-12, 3e-12, 1e-6, 0.8});
  shuffle_columns(cols, rng);
  expect_pin(pin_of(cols, 10),
             {285, 9791485964587754282ull, 10584826255977551564ull});
}

// Appends a column with a dominant entry in row `diag` and about `len`
// entries in all, the rest in distinct random rows, sorted by row.
LuBasis::Column long_column(util::Rng& rng, int m, int diag, int len) {
  std::vector<char> used(static_cast<std::size_t>(m), 0);
  LuBasis::Column col = {{diag, rng.uniform(4.0, 6.0)}};
  used[static_cast<std::size_t>(diag)] = 1;
  while (static_cast<int>(col.size()) < len) {
    const int r = rng.uniform_int(0, m - 1);
    if (used[static_cast<std::size_t>(r)]) continue;
    used[static_cast<std::size_t>(r)] = 1;
    col.emplace_back(r, rng.uniform(-1.0, 1.0));
  }
  std::sort(col.begin(), col.end());
  return col;
}

TEST(LuBasisPinned, PhaseOneShape) {
  // The shape of the IBM Phase I final basis, scaled down: about 85% unit
  // slacks, structural columns of three entries, and a dozen long columns
  // of 150-400 entries. The singleton pivots strip most rows off the long
  // columns without rebuilding them; the pivots with multipliers then
  // rebuild some of them, after which further singleton pivots strip more
  // rows off the rebuilt columns.
  util::Rng rng(2001);
  const int m = 3000;
  auto cols = slack_heavy(rng, m, 0.15, 2, {0.25, 0.5, 1.0, 1.5});
  for (int k = 0; k < 12; ++k) {
    const int j = rng.uniform_int(0, m - 1);
    cols[static_cast<std::size_t>(j)] =
        long_column(rng, m, j, rng.uniform_int(150, 400));
  }
  shuffle_columns(cols, rng);
  expect_pin(pin_of(cols, 31),
             {7291, 5868977492524268738ull, 3369061593518802175ull});
}

// `block` columns over `block` rows with no slack of their own, in cycles
// of `cycle` (which divides `block`): column k has entries in block rows k
// and k + 1 of its cycle, sometimes a third in row k + 2 of its cycle, plus
// 1-3 entries in other (slack) rows. Block rows are rows [0, block), slack
// rows the rest, one unit slack column each.
std::vector<LuBasis::Column> cyclic_block(util::Rng& rng, int m, int block,
                                          int cycle, double third) {
  std::vector<LuBasis::Column> cols;
  for (int k = 0; k < block; ++k) {
    const int base = k - k % cycle;
    const auto row = [&](int d) { return base + (k + d) % cycle; };
    LuBasis::Column col = {
        {k, rng.uniform(1.0, 3.0) * (rng.bernoulli(0.5) ? 1 : -1)},
        {row(1), rng.uniform(-1.5, 1.5)}};
    if (rng.bernoulli(third)) col.emplace_back(row(2), rng.uniform(-1.0, 1.0));
    for (int s = rng.uniform_int(1, 3); s > 0;) {
      const int r = rng.uniform_int(block, m - 1);
      bool dup = false;
      for (const auto& [ri, v] : col) dup = dup || ri == r;
      if (dup) continue;
      col.emplace_back(r, rng.uniform(-2.0, 2.0));
      --s;
    }
    std::sort(col.begin(), col.end());
    cols.push_back(std::move(col));
  }
  for (int i = block; i < m; ++i) cols.push_back({{i, 1.0}});
  return cols;
}

TEST(LuBasisPinned, NoSingletonBump) {
  // Every slack pivot removes a row from some block column, changing its
  // count while it stays at two or more. Once the slacks are gone no column
  // singleton is left, so the pivot column comes from the count >= 2
  // choice, after all of those count changes.
  util::Rng rng(2002);
  auto cols = cyclic_block(rng, 400, 60, 60, 0.5);
  shuffle_columns(cols, rng);
  expect_pin(pin_of(cols, 32),
             {653, 11589834540112907972ull, 9053103985228652396ull});
}

TEST(LuBasisPinned, FillInRaisesSingleton) {
  // m > 128, with the block columns at the lowest positions and the slacks
  // above them: the singleton picks climb through every word of positions
  // before the first pivot with multipliers. Those pivots then make new
  // singletons back in the lowest word, and their fill-in takes columns
  // that lost the pivot row down to one entry back up to two.
  util::Rng rng(2003);
  const auto cols = cyclic_block(rng, 200, 40, 5, 0.4);
  expect_pin(pin_of(cols, 33),
             {354, 14256458116364100303ull, 16013846560092539081ull});
}

TEST(LuBasis, ReusedObjectMatchesFresh) {
  // factorize() keeps its working arrays across calls. A factorization
  // must not see anything an earlier one left there, including one that
  // failed partway through elimination.
  util::Rng rng(2004);
  const int m = 300;
  auto a = slack_heavy(rng, m, 0.3, 2, {0.25, 0.5, 1.0});
  for (int k = 0; k < 4; ++k) {
    const int j = rng.uniform_int(0, m - 1);
    a[static_cast<std::size_t>(j)] = long_column(rng, m, j, 90);
  }
  shuffle_columns(a, rng);
  // A with its first unit column copied to the middle position: the copy
  // loses its one entry to the original and fails when the singleton picks
  // reach it, with count changes of other columns still deferred.
  auto singular = a;
  singular[m / 2] = *std::find_if(
      a.begin(), a.end(), [](const auto& col) { return col.size() == 1; });
  auto b = cyclic_block(rng, 40, 12, 4, 0.5);
  shuffle_columns(b, rng);

  LuBasis reused;
  expect_pin(pin_into(reused, a, 41), pin_of(a, 41));
  EXPECT_FALSE(reused.factorize(m, singular, 1e-8));
  LuBasis fresh;
  EXPECT_FALSE(fresh.factorize(m, singular, 1e-8));
  expect_pin(pin_into(reused, b, 42), pin_of(b, 42));
  expect_pin(pin_into(reused, a, 43), pin_of(a, 43));
}

// --- pinned per-pivot solves ---------------------------------------------------
//
// The simplex does not solve dense vectors: each pivot runs FTRAN on an
// entering column (a handful of nonzeros) and BTRAN on a unit vector e_p,
// through whatever eta file has built up since the last refactorization.
// These cases pin the exact bits of those calls, including the sign of
// every zero: an unreached position of an FTRAN output is +0.0 / pivot,
// which is -0.0 under a negative pivot, and -0.0 inputs (which BTRAN's
// transposed etas produce) must be treated as entries.

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0x100000001b3ull;
  return h ^ (h >> 29);
}

// A vector with `nnz` distinct random entries, the rest +0.0. With
// `neg_zeros`, about a third of the chosen entries are -0.0 instead.
std::vector<double> sparse_vector(util::Rng& rng, int m, int nnz,
                                  bool neg_zeros) {
  std::vector<double> v(static_cast<std::size_t>(m), 0.0);
  for (int placed = 0; placed < nnz;) {
    auto& e = v[static_cast<std::size_t>(rng.uniform_int(0, m - 1))];
    if (e != 0.0 || std::signbit(e)) continue;
    e = neg_zeros && rng.bernoulli(0.35)
            ? -0.0
            : rng.uniform(0.5, 2.0) * (rng.bernoulli(0.5) ? 1 : -1);
    ++placed;
  }
  return v;
}

struct SolvePin {
  std::uint64_t ftran_cols;   // entering-column-shaped inputs (1-5 entries)
  std::uint64_t btran_units;  // e_p
  std::uint64_t signed_zero;  // inputs carrying -0.0, both directions
  int neg_zero_entries;       // -0.0 entries over all outputs (not pinned)
};

int count_neg_zeros(const std::vector<double>& v) {
  return static_cast<int>(std::count_if(v.begin(), v.end(), [](double d) {
    return d == 0.0 && std::signbit(d);
  }));
}

// The simplex hands each solve the indexes of its input's nonzeros; a
// caller without them gets them from a scan. Runs ftran() (or btran()) on v
// both ways, the seed list built as a caller might hand it over: every
// index that holds other than +0.0, some twice, plus a few random indexes
// that may hold +0.0, shuffled. Both must give the same bits and the same
// nonzero list; v receives the result and *nz (if given) the list.
void solve_both(LuBasis& basis, bool forward, std::vector<double>& v,
                util::Rng& order, std::vector<int>* nz = nullptr) {
  const int m = static_cast<int>(v.size());
  std::vector<int> seeds;
  for (int i = 0; i < m; ++i) {
    const double d = v[static_cast<std::size_t>(i)];
    if (d == 0.0 && !std::signbit(d)) continue;
    seeds.push_back(i);
    if (order.bernoulli(0.3)) seeds.push_back(i);
  }
  for (int extra = order.uniform_int(0, 3); extra > 0; --extra) {
    seeds.push_back(order.uniform_int(0, m - 1));
  }
  for (int i = static_cast<int>(seeds.size()) - 1; i > 0; --i) {
    std::swap(seeds[static_cast<std::size_t>(i)],
              seeds[static_cast<std::size_t>(order.uniform_int(0, i))]);
  }
  auto seeded = v;
  std::vector<int> scanned_nz, seeded_nz;
  if (forward) {
    basis.ftran(v, &scanned_nz);
    basis.ftran(seeded, seeds, &seeded_nz);
  } else {
    basis.btran(v, &scanned_nz);
    basis.btran(seeded, seeds, &seeded_nz);
  }
  EXPECT_EQ(std::memcmp(v.data(), seeded.data(), v.size() * sizeof(double)),
            0)
      << (forward ? "ftran" : "btran") << ": seeded and scanned bits differ";
  EXPECT_EQ(scanned_nz, seeded_nz);
  if (nz != nullptr) *nz = scanned_nz;
}

SolvePin solve_pin(LuBasis& basis, int m, util::Rng& rng) {
  SolvePin pin{0, 0, 0, 0};
  // Seed lists draw from their own generator, so the pinned inputs are
  // the same whether or not they are built.
  util::Rng order(static_cast<std::uint64_t>(m));
  for (int s = 0; s < 16; ++s) {
    auto x = sparse_vector(rng, m, rng.uniform_int(1, 5), false);
    solve_both(basis, true, x, order);
    pin.ftran_cols = mix(pin.ftran_cols, bit_hash(x));
    pin.neg_zero_entries += count_neg_zeros(x);
  }
  // Around the point where a solve may switch to a dense sweep.
  for (int nnz : {m / 8 - 1, m / 8, m / 8 + 1}) {
    auto x = sparse_vector(rng, m, nnz, false);
    solve_both(basis, true, x, order);
    pin.ftran_cols = mix(pin.ftran_cols, bit_hash(x));
    auto y = sparse_vector(rng, m, nnz, false);
    solve_both(basis, false, y, order);
    pin.btran_units = mix(pin.btran_units, bit_hash(y));
  }
  for (int s = 0; s < 16; ++s) {
    std::vector<double> y(static_cast<std::size_t>(m), 0.0);
    y[static_cast<std::size_t>(rng.uniform_int(0, m - 1))] = 1.0;
    solve_both(basis, false, y, order);
    pin.btran_units = mix(pin.btran_units, bit_hash(y));
    pin.neg_zero_entries += count_neg_zeros(y);
  }
  for (int s = 0; s < 8; ++s) {
    auto x = sparse_vector(rng, m, rng.uniform_int(1, 6), true);
    solve_both(basis, true, x, order);
    pin.signed_zero = mix(pin.signed_zero, bit_hash(x));
    auto y = sparse_vector(rng, m, rng.uniform_int(1, 6), true);
    solve_both(basis, false, y, order);
    pin.signed_zero = mix(pin.signed_zero, bit_hash(y));
  }
  // Only -0.0 entries.
  std::vector<double> z(static_cast<std::size_t>(m), 0.0);
  z[static_cast<std::size_t>(rng.uniform_int(0, m - 1))] = -0.0;
  auto zy = z;
  solve_both(basis, true, z, order);
  solve_both(basis, false, zy, order);
  pin.signed_zero = mix(mix(pin.signed_zero, bit_hash(z)), bit_hash(zy));
  return pin;
}

// Factorizes `cols`, pins the per-pivot solves, replaces 8 basis columns by
// entering-column-shaped columns through update() (each at the position of
// its FTRAN's largest entry), and pins the same solves through the eta file.
void expect_solve_pins(const std::vector<LuBasis::Column>& cols,
                       std::uint64_t seed, std::size_t factor_nnz,
                       const SolvePin& fresh, const SolvePin& updated,
                       std::uint64_t etas) {
  const int m = static_cast<int>(cols.size());
  LuBasis basis;
  ASSERT_TRUE(basis.factorize(m, cols, 1e-8));
  EXPECT_EQ(basis.factor_nnz(), factor_nnz);
  util::Rng rng(seed);
  const SolvePin got = solve_pin(basis, m, rng);
  EXPECT_EQ(got.ftran_cols, fresh.ftran_cols);
  EXPECT_EQ(got.btran_units, fresh.btran_units);
  EXPECT_EQ(got.signed_zero, fresh.signed_zero);
  EXPECT_GT(got.neg_zero_entries, 0) << "no negative pivot left a -0.0";

  std::uint64_t eta_hash = 0;
  util::Rng order(seed);
  for (int done = 0; done < 8;) {
    auto w = sparse_vector(rng, m, rng.uniform_int(1, 5), false);
    std::vector<int> w_nz;
    solve_both(basis, true, w, order, &w_nz);
    int pos = 0;
    for (int p = 1; p < m; ++p) {
      if (std::abs(w[static_cast<std::size_t>(p)]) >
          std::abs(w[static_cast<std::size_t>(pos)])) {
        pos = p;
      }
    }
    if (!basis.update(pos, w, w_nz, 1e-8)) continue;
    eta_hash = mix(eta_hash, bit_hash(w));
    ++done;
  }
  EXPECT_EQ(basis.updates_since_factorize(), 8);
  EXPECT_EQ(eta_hash, etas);
  const SolvePin after = solve_pin(basis, m, rng);
  EXPECT_EQ(after.ftran_cols, updated.ftran_cols);
  EXPECT_EQ(after.btran_units, updated.btran_units);
  EXPECT_EQ(after.signed_zero, updated.signed_zero);
  EXPECT_GT(after.neg_zero_entries, 0);
}

// Negates about half the columns: unit slacks become -e_i and structural
// diagonals change sign, so many pivots are negative.
void negate_columns(std::vector<LuBasis::Column>& cols, util::Rng& rng) {
  for (auto& col : cols) {
    if (!rng.bernoulli(0.5)) continue;
    for (auto& [r, v] : col) v = -v;
  }
}

TEST(LuBasisPinned, SparseSolvesNegativePivots) {
  util::Rng rng(1501);
  auto cols = slack_heavy(rng, 200, 0.4, 3, {0.25, 0.5, 1.0, 1.5});
  negate_columns(cols, rng);
  shuffle_columns(cols, rng);
  expect_solve_pins(cols, 21, 434,
                    {16323963456025000525ull, 10371654004382405271ull,
                     11611290579934696117ull, 0},
                    {13788784773739497086ull, 3837870154900140294ull,
                     6515440874371424175ull, 0},
                    5843349274403637955ull);
}

TEST(LuBasisPinned, SparseSolvesLongColumns) {
  // Long columns give L multipliers, so the L sweeps have work to skip.
  util::Rng rng(1502);
  const int m = 240;
  auto cols = slack_heavy(rng, m, 0.3, 2, {0.5, 1.0, 1.5});
  for (int k = 0; k < 6; ++k) {
    const int j = rng.uniform_int(0, m - 1);
    auto& col = cols[static_cast<std::size_t>(j)];
    col = {{j, rng.uniform(4.0, 6.0) * (rng.bernoulli(0.5) ? 1 : -1)}};
    for (int r = 0; r < m; ++r) {
      if (r != j && rng.bernoulli(0.35)) {
        col.emplace_back(r, rng.uniform(-1.0, 1.0));
      }
    }
    std::sort(col.begin(), col.end());
  }
  negate_columns(cols, rng);
  shuffle_columns(cols, rng);
  expect_solve_pins(cols, 22, 872,
                    {13524159372967444950ull, 6069063951464693835ull,
                     2607570800677184020ull, 0},
                    {8784394493746541405ull, 5358860173722109485ull,
                     16788992226234918817ull, 0},
                    9607347148176586029ull);
}

TEST(LuBasisPinned, SparseSolvesStructuralHeavy) {
  // Mostly structural columns: long U rows and a wide reach per solve.
  util::Rng rng(1503);
  auto cols = slack_heavy(rng, 120, 0.85, 3, {0.2, 0.6, 1.0});
  negate_columns(cols, rng);
  shuffle_columns(cols, rng);
  expect_solve_pins(cols, 23, 936,
                    {15047819401707132329ull, 13879477070998690781ull,
                     11517313666340372737ull, 0},
                    {3290597611051605030ull, 5475493846021007536ull,
                     10547951899154930296ull, 0},
                    9621832997936689426ull);
}

TEST(LuBasisPinned, EtasWriteNegativeZeroFromZeroInputs) {
  // A transposed eta computes pivot * y[pivot] + sum val * y[pos], so on
  // all +0.0 inputs it writes -0.0 exactly when its pivot value and every
  // off-pivot value are negative. BTRAN of e_p runs every eta, so those
  // -0.0 writes land in the output even when e_p reaches none of them.
  // Block columns sit at positions [0, 12), unit slacks e_i at position i
  // above, so an entering column in slack rows FTRANs to itself.
  util::Rng rng(1505);
  const int m = 48;
  const auto cols = cyclic_block(rng, m, 12, 4, 0.5);
  LuBasis basis;
  ASSERT_TRUE(basis.factorize(m, cols, 1e-8));
  util::Rng order(1506);
  const auto enter = [&](const std::vector<std::pair<int, double>>& column,
                         int pos) {
    std::vector<double> w(static_cast<std::size_t>(m), 0.0);
    for (const auto& [r, v] : column) w[static_cast<std::size_t>(r)] = v;
    std::vector<int> w_nz;
    solve_both(basis, true, w, order, &w_nz);
    ASSERT_TRUE(basis.update(pos, w, w_nz, 1e-8));
  };
  // Eta 0 reads position 25 with a positive value: -0.0 there makes it
  // write -0.0 at 20. Eta 1 is a singleton with a negative pivot. Eta 2
  // is all negative and writes position 25. Eta 3 runs through the block.
  enter({{20, -2.0}, {25, 1.0}}, 20);
  enter({{30, -2.0}}, 30);
  enter({{25, -4.0}, {33, -1.0}, {40, -0.5}}, 25);
  enter({{3, 1.5}, {14, 0.5}}, 3);
  ASSERT_EQ(basis.updates_since_factorize(), 4);

  std::uint64_t units = 0;
  int neg_zeros = 0;
  for (int p = 0; p < m; ++p) {
    std::vector<double> y(static_cast<std::size_t>(m), 0.0);
    y[static_cast<std::size_t>(p)] = 1.0;
    solve_both(basis, false, y, order);
    units = mix(units, bit_hash(y));
    neg_zeros += count_neg_zeros(y);
    if (p != 5) continue;
    for (int r : {20, 25, 30}) {
      EXPECT_EQ(y[static_cast<std::size_t>(r)], 0.0) << "row " << r;
      EXPECT_TRUE(std::signbit(y[static_cast<std::size_t>(r)])) << "row " << r;
    }
  }
  EXPECT_EQ(units, 3210855347682993429ull);
  EXPECT_EQ(neg_zeros, 353);
}

// The nonzero lists the solves report are what the simplex's ratio test,
// eta build and pivot-row pass walk instead of all m entries: they must
// hold exactly the nonzero indexes, ascending, on both sides of the dense
// switch and through the eta file.
TEST(LuBasis, SolvesReportExactAscendingNonzeros) {
  util::Rng rng(1504);
  const int m = 160;
  auto cols = slack_heavy(rng, m, 0.5, 3, {0.5, 1.0, 2.0});
  negate_columns(cols, rng);
  shuffle_columns(cols, rng);
  LuBasis basis;
  ASSERT_TRUE(basis.factorize(m, cols, 1e-8));
  const auto expect_exact = [](const std::vector<double>& v,
                               const std::vector<int>& nz) {
    std::vector<int> want;
    for (int i = 0; i < static_cast<int>(v.size()); ++i) {
      if (v[static_cast<std::size_t>(i)] != 0.0) want.push_back(i);
    }
    EXPECT_EQ(nz, want);
  };
  std::vector<int> nz;
  util::Rng order(1507);
  for (int round = 0; round < 2; ++round) {
    for (int nnz : {1, 3, 6, m / 8, m / 8 + 1, m}) {
      auto x = sparse_vector(rng, m, nnz, true);
      solve_both(basis, true, x, order, &nz);
      expect_exact(x, nz);
      auto y = sparse_vector(rng, m, nnz, true);
      solve_both(basis, false, y, order, &nz);
      expect_exact(y, nz);
    }
    // Second round through an eta file.
    for (int done = 0; done < 6;) {
      auto w = sparse_vector(rng, m, 3, false);
      solve_both(basis, true, w, order, &nz);
      if (nz.empty()) continue;
      const int pos = nz[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(nz.size()) - 1))];
      if (basis.update(pos, w, nz, 1e-8)) ++done;
    }
  }
}

TEST(LuBasis, SeededFtranSkipsAnLWriteThatCancels) {
  // Column 0 pivots on row 0 with multiplier 1/2 in row 1, so FTRAN's L
  // pass computes x[1] = 1 - 0.5 * 2 = +0.0 for b = column 0. Row 1 is in
  // the seeds (as an input nonzero and as a written row) but holds +0.0
  // when the U pass starts, so it seeds no step, as a scan would find.
  LuBasis basis;
  ASSERT_TRUE(basis.factorize(
      3, {{{0, 2.0}, {1, 1.0}}, {{0, 1.0}, {1, 4.0}}, {{2, 1.0}}}, 1e-10));
  std::vector<double> x = {2.0, 1.0, 0.0};
  std::vector<int> seeds = {1, 0};
  std::vector<int> nz;
  basis.ftran(x, seeds, &nz);
  EXPECT_EQ(x[0], 1.0);
  EXPECT_EQ(x[1], 0.0);
  EXPECT_FALSE(std::signbit(x[1]));
  EXPECT_EQ(nz, std::vector<int>{0});
  std::vector<double> scanned = {2.0, 1.0, 0.0};
  util::Rng order(1508);
  solve_both(basis, true, scanned, order);
  EXPECT_EQ(std::memcmp(x.data(), scanned.data(), sizeof(double) * 3), 0);
}

TEST(LinExpr, OperatorAlgebra) {
  const VarId x{0}, y{1};
  LinExpr e = 2.0 * LinExpr(x) + LinExpr(y) * 3.0 - LinExpr(x) + 1.5;
  double cx = 0.0, cy = 0.0;
  for (const auto& [v, c] : e.terms()) {
    if (v == x) cx += c;
    if (v == y) cy += c;
  }
  EXPECT_DOUBLE_EQ(cx, 1.0);
  EXPECT_DOUBLE_EQ(cy, 3.0);
  EXPECT_DOUBLE_EQ(e.constant(), 1.5);
}

TEST(Model, DuplicateTermsAreMerged) {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, 10, 1);
  LinExpr e;
  e.add_term(x, 1.0);
  e.add_term(x, 1.0);  // 2x <= 10 total
  m.add_constr(e, Sense::kLe, 10);
  ASSERT_EQ(m.solve().status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), 5.0, 1e-7);
}

TEST(Model, ConstantsFoldIntoRhs) {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, 100, 1);
  m.add_constr(LinExpr(x) + 3.0, Sense::kLe, 10);  // x <= 7
  ASSERT_EQ(m.solve().status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), 7.0, 1e-7);
}

TEST(Model, IterationLimitSurfaces) {
  Model m;
  m.set_maximize();
  m.simplex_options().max_iterations = 1;
  std::vector<VarId> xs;
  for (int i = 0; i < 20; ++i) xs.push_back(m.add_var(0, 1, 1));
  LinExpr sum;
  for (const auto& v : xs) sum.add_term(v, 1.0);
  m.add_constr(sum, Sense::kLe, 5);
  EXPECT_EQ(m.solve().status, SolveStatus::kIterationLimit);
}

TEST(Model, SetBoundsTightensSolution) {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, 10, 1);
  m.add_constr(LinExpr(x), Sense::kLe, 8);
  ASSERT_EQ(m.solve().status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), 8.0, 1e-7);
  m.set_bounds(x, 0, 3);
  ASSERT_EQ(m.solve().status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), 3.0, 1e-7);
}

TEST(Model, MinimizeDualSign) {
  // min x st x >= 4: dual of the >= row is 1 (cost decreases as rhs drops).
  Model m;
  const auto x = m.add_var(0, kInf, 1);
  m.add_constr(LinExpr(x), Sense::kGe, 4);
  ASSERT_EQ(m.solve().status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.dual(0), 1.0, 1e-7);
}

}  // namespace
}  // namespace arrow::solver

// Tests for the util substrate: RNG, statistics, table formatting.
#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace arrow::util {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, WeibullMeanMatchesTheory) {
  // mean = scale * Gamma(1 + 1/shape); for shape 0.8, Gamma(2.25) ~ 1.1330.
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.weibull(0.8, 0.02);
  EXPECT_NEAR(sum / n, 0.02 * std::tgamma(1.0 + 1.0 / 0.8), 0.001);
}

TEST(Rng, LognormalMedian) {
  Rng rng(17);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.lognormal(2.2, 0.85));
  // Median of lognormal = exp(mu) ~ 9.03 (the paper's 9-hour fiber MTTR).
  EXPECT_NEAR(percentile(v, 50.0), std::exp(2.2), 0.5);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(19);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(31);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(ARROW_CHECK(false, "boom"), std::logic_error);
  EXPECT_NO_THROW(ARROW_CHECK(true));
}

// Degenerate weight vectors used to fall through to the last index (or read
// garbage); they are caller bugs and must be rejected loudly.
TEST(Rng, WeightedIndexRejectsDegenerateWeights) {
  Rng rng(3);
  EXPECT_THROW(rng.weighted_index({}), std::logic_error);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0, 0.0}), std::logic_error);
  EXPECT_THROW(rng.weighted_index({0.5, -0.1}), std::logic_error);
  EXPECT_THROW(rng.weighted_index({0.5, std::nan("")}), std::logic_error);
}

TEST(Rng, WeightedIndexNeverPicksAZeroWeightEntry) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(rng.weighted_index({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(Stats, SummaryBasics) {
  const auto s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_DOUBLE_EQ(s.p50, 3);
}

TEST(Stats, SummaryEmpty) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile({5}, 73.0), 5.0);
}

// Out-of-range p (accumulated floating-point error in a sweep, or NaN) must
// clamp to the nearest order statistic — never extrapolate, never throw.
TEST(Stats, PercentileClampsOutOfRangeP) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, 150.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, 100.0 + 1e-12), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, std::nan("")), 1.0);
  EXPECT_DOUBLE_EQ(percentile({4}, -10.0), 4.0);   // singleton
  EXPECT_DOUBLE_EQ(percentile({4}, 300.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);     // empty
  EXPECT_DOUBLE_EQ(percentile({}, -1.0), 0.0);
}

TEST(Stats, QuantileClampsOutOfRangeQ) {
  EmpiricalCdf cdf({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.5), 4.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(std::nan("")), 1.0);
  EmpiricalCdf single({7.0});
  EXPECT_DOUBLE_EQ(single.quantile(2.0), 7.0);
  EXPECT_DOUBLE_EQ(single.quantile(-1.0), 7.0);
  EmpiricalCdf empty(std::vector<double>{});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(Stats, EmpiricalCdfAtAndQuantile) {
  EmpiricalCdf cdf({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(Stats, CdfCurveIsMonotone) {
  EmpiricalCdf cdf({5, 3, 9, 1, 7, 2, 8});
  const auto curve = cdf.curve(10);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LE(curve[i - 1].second, curve[i].second);
  }
}

TEST(Stats, TallyAround) {
  const auto t = tally_around({1, 2, 2, 3}, 2.0);
  EXPECT_DOUBLE_EQ(t.below, 0.25);
  EXPECT_DOUBLE_EQ(t.equal, 0.5);
  EXPECT_DOUBLE_EQ(t.above, 0.25);
}

TEST(Table, FormatsAlignedRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 |    |"), std::string::npos);
}

TEST(Table, NumberHelpers) {
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
  EXPECT_EQ(Table::mult(2.04, 1), "2.0x");
  EXPECT_EQ(Table::pct(0.9999, 2), "99.99%");
}

}  // namespace
}  // namespace arrow::util

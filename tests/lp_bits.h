// Bit-level comparison of lowered LPs for the suites that check a resident
// or incrementally updated model against a fresh build: equal to the bit,
// -0.0 versus +0.0 included, not to a tolerance.
#pragma once

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "solver/lp.h"

namespace arrow::test {

inline bool same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

inline void expect_byte_equal(const solver::Lp& a, const solver::Lp& b) {
  EXPECT_TRUE(same_bits(a.cost, b.cost));
  EXPECT_TRUE(same_bits(a.lower, b.lower));
  EXPECT_TRUE(same_bits(a.upper, b.upper));
  EXPECT_TRUE(same_bits(a.rhs, b.rhs));
  EXPECT_EQ(a.a.rows, b.a.rows);
  EXPECT_EQ(a.a.cols, b.a.cols);
  EXPECT_EQ(a.a.col_start, b.a.col_start);
  EXPECT_EQ(a.a.row_index, b.a.row_index);
  EXPECT_TRUE(same_bits(a.a.value, b.a.value));
}

}  // namespace arrow::test

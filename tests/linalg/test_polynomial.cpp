#include "linalg/polynomial.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace sysgo::linalg {
namespace {

TEST(Polynomial, P1IsOne) {
  EXPECT_DOUBLE_EQ(delay_polynomial(1, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(delay_polynomial(1, 0.99), 1.0);
}

TEST(Polynomial, P0IsZeroByConvention) {
  EXPECT_DOUBLE_EQ(delay_polynomial(0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(delay_polynomial(-3, 0.5), 0.0);
}

TEST(Polynomial, P2MatchesDefinition) {
  const double l = 0.7;
  EXPECT_NEAR(delay_polynomial(2, l), 1.0 + l * l, 1e-15);
}

TEST(Polynomial, GeneralTermMatchesDirectSum) {
  const double l = 0.61803;
  for (int i = 1; i <= 10; ++i) {
    double expected = 0.0;
    for (int j = 0; j < i; ++j) expected += std::pow(l, 2 * j);
    EXPECT_NEAR(delay_polynomial(i, l), expected, 1e-13) << "i=" << i;
  }
}

TEST(Polynomial, CompositionIdentity) {
  // Paper: p_i(λ) + λ^{2i} p_j(λ) = p_{i+j}(λ).
  const double l = 0.43;
  for (int i = 1; i <= 6; ++i)
    for (int j = 1; j <= 6; ++j)
      EXPECT_NEAR(delay_polynomial(i, l) + std::pow(l, 2 * i) * delay_polynomial(j, l),
                  delay_polynomial(i + j, l), 1e-13);
}

TEST(Polynomial, BalancedSplitMaximizesProduct) {
  // Lemma 4.3's inner inequality: p_{i+1}·p_{j-1} < p_i·p_j for i <= j-2...
  // equivalently the balanced split maximizes p_a·p_b with a+b fixed.
  const double l = 0.55;
  const int total = 8;
  const double balanced = delay_polynomial(4, l) * delay_polynomial(4, l);
  for (int a = 1; a < total; ++a) {
    const double prod = delay_polynomial(a, l) * delay_polynomial(total - a, l);
    EXPECT_LE(prod, balanced + 1e-13) << "a=" << a;
  }
}

TEST(Polynomial, LimitMatchesLargeI) {
  const double l = 0.6;
  EXPECT_NEAR(delay_polynomial(200, l), delay_polynomial_limit(l), 1e-12);
}

TEST(Polynomial, GeometricSumMatchesDirect) {
  const double l = 0.8;
  for (int k = 0; k <= 10; ++k) {
    double expected = 0.0;
    for (int j = 1; j <= k; ++j) expected += std::pow(l, j);
    EXPECT_NEAR(geometric_sum(k, l), expected, 1e-13) << "k=" << k;
  }
}

TEST(Polynomial, GeometricSumLimit) {
  const double l = 0.5;
  EXPECT_NEAR(geometric_sum(200, l), geometric_sum_limit(l), 1e-12);
  EXPECT_DOUBLE_EQ(geometric_sum_limit(0.5), 1.0);
}

TEST(Polynomial, MonotoneInLambda) {
  for (int i = 2; i <= 6; ++i)
    EXPECT_LT(delay_polynomial(i, 0.3), delay_polynomial(i, 0.7));
}


// The sums stop once a term no longer moves them; that must return the
// plain loop's value bit for bit, up to a million terms.
TEST(Polynomial, EarlyStopIsBitIdenticalToThePlainLoop) {
  std::vector<int> checkpoints;
  for (int i = 0; i <= 200; ++i) checkpoints.push_back(i);
  for (int i : {1000, 4096, 10000, 65536, 100000, 500000, 1000000})
    checkpoints.push_back(i);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (double l : {0.0, 1e-9, 0.3, 0.618, 0.99, 1.0 - 1e-12, 1.0, -0.5, -0.99}) {
    double p = 0.0, p_term = 1.0;  // delay_polynomial's plain loop
    double g = 0.0, g_term = l;    // geometric_sum's plain loop
    std::size_t next = 0;
    for (int i = 0; next < checkpoints.size(); ++i) {
      if (i == checkpoints[next]) {
        ASSERT_EQ(bits(delay_polynomial(i, l)), bits(p)) << "l=" << l << " i=" << i;
        ASSERT_EQ(bits(geometric_sum(i, l)), bits(g)) << "l=" << l << " k=" << i;
        ++next;
      }
      p += p_term;
      p_term *= l * l;
      g += g_term;
      g_term *= l;
    }
  }
}

}  // namespace
}  // namespace sysgo::linalg

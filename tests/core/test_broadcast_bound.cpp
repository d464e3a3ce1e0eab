#include "support/broadcast_bound.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.hpp"

namespace sysgo::core {
namespace {

TEST(BroadcastBound, PaperQuotedCoefficients) {
  // [22, 2] as quoted in the paper's introduction.
  EXPECT_NEAR(broadcast_coefficient(2), 1.4404, 1.01e-4);
  EXPECT_NEAR(broadcast_coefficient(3), 1.1374, 1.01e-4);
  EXPECT_NEAR(broadcast_coefficient(4), 1.0562, 1.01e-4);
}

TEST(BroadcastBound, GrowthRoots) {
  // d = 2: golden ratio; d -> ∞: 2.
  EXPECT_NEAR(broadcast_growth_root(2), (1.0 + std::sqrt(5.0)) / 2.0, 1e-10);
  EXPECT_GT(broadcast_growth_root(16), 1.99);
  EXPECT_LT(broadcast_growth_root(16), 2.0);
}

TEST(BroadcastBound, RootSatisfiesItsPolynomial) {
  for (int d : {2, 3, 5, 8}) {
    const double x = broadcast_growth_root(d);
    double sum = 0.0;
    for (int i = 0; i < d; ++i) sum += std::pow(x, i);
    EXPECT_NEAR(std::pow(x, d), sum, 1e-8) << "d=" << d;
  }
}

TEST(BroadcastBound, DecreasesTowardOne) {
  double prev = broadcast_coefficient(2);
  for (int d = 3; d <= 12; ++d) {
    const double cur = broadcast_coefficient(d);
    EXPECT_LT(cur, prev) << "d=" << d;
    prev = cur;
  }
  EXPECT_GT(prev, 1.0);
}

TEST(BroadcastBound, LargeDegreeAsymptotics) {
  // The root satisfies x_d ≈ 2 − 2^{−d}, so
  // c(d) ≈ 1 + log2(e)/2^{d+1} for large d.  (The paper's Section 1 prints
  // this asymptotic garbled as "1 + log(e)/2d"; the exact values c(2..4)
  // pinned above confirm the root-based form.)
  for (int d : {12, 16, 20}) {
    const double approx =
        1.0 + std::log2(std::exp(1.0)) / std::pow(2.0, d + 1);
    EXPECT_NEAR(broadcast_coefficient(d), approx, 1e-5) << "d=" << d;
  }
}

// The Section 6 identity: the general full-duplex s-systolic gossip bound
// *is* the broadcasting bound for degree s−1.
TEST(BroadcastBound, FullDuplexGossipEqualsBroadcastBound) {
  for (int s : {3, 4, 5, 6, 8, 12})
    EXPECT_NEAR(e_general(s, Duplex::kFull), broadcast_coefficient(s - 1), 1e-9)
        << "s=" << s;
}

TEST(BroadcastBound, RejectsBadDegree) {
  EXPECT_THROW((void)broadcast_growth_root(1), std::invalid_argument);
  EXPECT_THROW((void)broadcast_coefficient(0), std::invalid_argument);
}

}  // namespace
}  // namespace sysgo::core

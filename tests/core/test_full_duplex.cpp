#include "support/full_duplex.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.hpp"

namespace sysgo::core {
namespace {

// The production Lemma 6.1 bound λ + λ² + … + λ^{s−1}.
double lemma61_bound(int s, double lambda) {
  return norm_bound_function(lambda, s, Duplex::kFull);
}

TEST(FullDuplex, Fig7StructureS4) {
  // Fig. 7: s = 4, superdiagonals λ, λ², λ³.
  const double lam = 0.5;
  const auto m = full_duplex_local_matrix(6, 4, lam);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) {
      if (j > i && j - i <= 3)
        EXPECT_NEAR(m(i, j), std::pow(lam, j - i), 1e-15);
      else
        EXPECT_DOUBLE_EQ(m(i, j), 0.0);
    }
}

TEST(FullDuplex, Lemma61BoundValue) {
  const double lam = 0.5;
  EXPECT_NEAR(lemma61_bound(4, lam), lam + lam * lam + lam * lam * lam,
              1e-15);
  EXPECT_NEAR(lemma61_bound(2, lam), lam, 1e-15);
}

TEST(FullDuplex, ExactNormBelowBound) {
  for (int s : {3, 4, 6})
    for (double lam : {0.3, 0.5, 0.55})
      for (int t : {4, 8, 16, 32})
        EXPECT_LE(full_duplex_norm_exact(t, s, lam),
                  lemma61_bound(s, lam) + 1e-9)
            << "s=" << s << " t=" << t;
}

TEST(FullDuplex, ExactNormApproachesBound) {
  // As t grows, the finite matrix norm approaches the Lemma 6.1 value.
  const int s = 4;
  const double lam = 0.5;
  const double bound = lemma61_bound(s, lam);
  const double near_bound = full_duplex_norm_exact(256, s, lam);
  EXPECT_GT(near_bound, 0.98 * bound);
  EXPECT_LE(near_bound, bound + 1e-9);
}

TEST(FullDuplex, NormMonotoneInT) {
  const int s = 5;
  const double lam = 0.45;
  double prev = 0.0;
  for (int t : {2, 4, 8, 16, 64}) {
    const double cur = full_duplex_norm_exact(t, s, lam);
    EXPECT_GE(cur, prev - 1e-10);
    prev = cur;
  }
}

TEST(FullDuplex, RejectsBadArguments) {
  EXPECT_THROW((void)full_duplex_local_matrix(0, 4, 0.5), std::invalid_argument);
  EXPECT_THROW((void)full_duplex_local_matrix(4, 1, 0.5), std::invalid_argument);
  EXPECT_THROW((void)full_duplex_local_matrix(4, 4, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace sysgo::core

#include "support/local_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/audit.hpp"
#include "core/bounds.hpp"
#include "linalg/polynomial.hpp"
#include "support/power_iteration.hpp"
#include "util/rng.hpp"

namespace sysgo::core {
namespace {

LocalPattern simple_pattern() { return {{1}, {1}}; }  // l = r = 1, s = 2... s >= 3 needed
LocalPattern paper_k2_pattern() { return {{1, 2}, {2, 1}}; }  // s = 6, k = 2

// The production audit's Lemma 4.3 bound for a vertex with the pattern's
// per-period totals L and R (the half-duplex bound reads nothing else).
double audit_bound(const LocalPattern& pat, double lambda) {
  VertexActivity act;
  act.left_rounds = pat.left_total();
  act.right_rounds = pat.right_total();
  return vertex_norm_bound(act, pat.period(), lambda,
                           protocol::Mode::kHalfDuplex);
}

TEST(LocalPattern, TotalsAndPeriod) {
  const auto pat = paper_k2_pattern();
  EXPECT_EQ(pat.k(), 2);
  EXPECT_EQ(pat.left_total(), 3);
  EXPECT_EQ(pat.right_total(), 3);
  EXPECT_EQ(pat.period(), 6);
  EXPECT_TRUE(pat.valid());
}

TEST(LocalPattern, PeriodicExtension) {
  const auto pat = paper_k2_pattern();
  EXPECT_EQ(pat.left(0), 1);
  EXPECT_EQ(pat.left(1), 2);
  EXPECT_EQ(pat.left(2), 1);
  EXPECT_EQ(pat.right(3), 1);
}

TEST(LocalPattern, DelayFormula) {
  const auto pat = paper_k2_pattern();
  // d_{i,i} = 1 always.
  EXPECT_EQ(pat.delay(0, 0), 1);
  EXPECT_EQ(pat.delay(1, 1), 1);
  // d_{0,1} = 1 + r_0 + l_1 = 1 + 2 + 2 = 5.
  EXPECT_EQ(pat.delay(0, 1), 5);
  // d_{1,2} = 1 + r_1 + l_2 = 1 + 1 + 1 = 3.
  EXPECT_EQ(pat.delay(1, 2), 3);
  // Spanning one full period: d_{0,2} = 1 + (r0 + l1) + (r1 + l2) = 7.
  EXPECT_EQ(pat.delay(0, 2), 7);
  EXPECT_THROW((void)pat.delay(2, 1), std::invalid_argument);
}

TEST(LocalPattern, InvalidPatterns) {
  EXPECT_FALSE((LocalPattern{{}, {}}).valid());
  EXPECT_FALSE((LocalPattern{{1, 1}, {1}}).valid());
  EXPECT_FALSE((LocalPattern{{0}, {1}}).valid());
  EXPECT_FALSE((LocalPattern{{1}, {-2}}).valid());
}

TEST(LocalMatrix, MxDimensions) {
  const auto pat = paper_k2_pattern();
  const auto m = mx_matrix(pat, 4, 0.5);
  // h = 4 blocks: lefts 1,2,1,2 = 6 rows; rights 2,1,2,1 = 6 cols.
  EXPECT_EQ(m.rows(), 6u);
  EXPECT_EQ(m.cols(), 6u);
}

TEST(LocalMatrix, MxEntriesMatchHandComputation) {
  // Pattern l = (1), r = (1), s = 2, k = 1: B_{i,i} = λ^1 (scalar blocks).
  const double lam = 0.5;
  const auto m = mx_matrix(simple_pattern(), 3, lam);
  EXPECT_EQ(m.rows(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(m(i, j), i == j ? lam : 0.0);
}

TEST(LocalMatrix, MxBlockStructureK2) {
  // l = (1,1), r = (1,1), s = 4: blocks at (i,i) value λ and (i,i+1) value
  // λ^{1 + r_i + l_{i+1}} = λ^3.
  const double lam = 0.4;
  LocalPattern pat{{1, 1}, {1, 1}};
  const auto m = mx_matrix(pat, 4, lam);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      if (j == i) {
        EXPECT_NEAR(m(i, j), lam, 1e-15);
      } else if (j == i + 1) {
        EXPECT_NEAR(m(i, j), lam * lam * lam, 1e-15);
      } else {
        EXPECT_DOUBLE_EQ(m(i, j), 0.0);
      }
    }
}

TEST(LocalMatrix, MxRankOneBlockShape) {
  // Block with l_i = 2, r_j = 2 must be λ^{d} Λ Λᵀ: entries λ^{d+a+b}.
  const double lam = 0.6;
  LocalPattern pat{{2}, {2}};  // s = 4, k = 1
  const auto m = mx_matrix(pat, 2, lam);
  // First block rows 0..1, cols 0..1, d_{0,0} = 1.
  EXPECT_NEAR(m(0, 0), lam, 1e-15);
  EXPECT_NEAR(m(0, 1), lam * lam, 1e-15);
  EXPECT_NEAR(m(1, 0), lam * lam, 1e-15);
  EXPECT_NEAR(m(1, 1), lam * lam * lam, 1e-15);
}

TEST(LocalMatrix, NxOxEntries) {
  const double lam = 0.5;
  const auto pat = paper_k2_pattern();
  const int h = 4;
  const auto nx = nx_matrix(pat, h, lam);
  const auto ox = ox_matrix(pat, h, lam);
  // Nx(0,0) = λ^1 · p_{r_0}(λ) with r_0 = 2.
  EXPECT_NEAR(nx(0, 0), lam * linalg::delay_polynomial(2, lam), 1e-14);
  // Nx(0,1) = λ^{d_{0,1}} p_{r_1} with d = 5, r_1 = 1.
  EXPECT_NEAR(nx(0, 1), std::pow(lam, 5) * linalg::delay_polynomial(1, lam), 1e-14);
  // Band: zero outside i <= j < i+k.
  EXPECT_DOUBLE_EQ(nx(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(nx(1, 0), 0.0);
  // Ox(1,0) = λ^{d_{0,1}} p_{l_0}; Ox upper entries vanish.
  EXPECT_NEAR(ox(1, 0), std::pow(lam, 5) * linalg::delay_polynomial(1, lam), 1e-14);
  EXPECT_DOUBLE_EQ(ox(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(ox(3, 1), 0.0);  // j <= i-k
}

TEST(LocalMatrix, Lemma42SemiEigenvectorInequality) {
  // Nx(λ)·e <= λ·p_R(λ)·e componentwise, with equality away from the tail.
  const double lam = 0.47;
  const auto pat = paper_k2_pattern();
  const int h = 6;
  const auto nx = nx_matrix(pat, h, lam);
  const auto e = lemma42_semi_eigenvector(pat, h, lam);
  const auto ne = nx.mul(e);
  const double mu = lam * linalg::delay_polynomial(pat.right_total(), lam);
  for (int i = 0; i < h; ++i) {
    EXPECT_LE(ne[static_cast<std::size_t>(i)],
              mu * e[static_cast<std::size_t>(i)] + 1e-12)
        << "i=" << i;
    if (i <= h - pat.k()) {
      EXPECT_NEAR(ne[static_cast<std::size_t>(i)], mu * e[static_cast<std::size_t>(i)],
                  1e-12)
          << "i=" << i;
    }
  }
}

TEST(LocalMatrix, Lemma42ForOx) {
  const double lam = 0.52;
  const auto pat = paper_k2_pattern();
  const int h = 6;
  const auto ox = ox_matrix(pat, h, lam);
  const auto e = lemma42_semi_eigenvector(pat, h, lam);
  const auto oe = ox.mul(e);
  const double mu = lam * linalg::delay_polynomial(pat.left_total(), lam);
  for (int i = 0; i < h; ++i)
    EXPECT_LE(oe[static_cast<std::size_t>(i)],
              mu * e[static_cast<std::size_t>(i)] + 1e-12)
        << "i=" << i;
}

TEST(LocalMatrix, NormViaOxNxComposition) {
  // ‖Mx‖² = ρ(Mxᵀ Mx) = ρ(Ox·Nx) (Lemma 2.2 + the restriction argument).
  const double lam = 0.5;
  const auto pat = paper_k2_pattern();
  const int h = 5;
  const double norm = local_norm_exact(pat, h, lam);
  const auto prod = ox_matrix(pat, h, lam).multiply(nx_matrix(pat, h, lam));
  const double rho = linalg::spectral_radius_nonnegative(prod).value;
  EXPECT_NEAR(norm * norm, rho, 1e-8);
}

TEST(LocalMatrix, ExactNormBelowLemma43Bound) {
  const auto pat = paper_k2_pattern();
  for (double lam : {0.3, 0.5, 0.62}) {
    const double bound = audit_bound(pat, lam);
    for (int h = 2; h <= 8; ++h)
      EXPECT_LE(local_norm_exact(pat, h, lam), bound + 1e-9)
          << "h=" << h << " lam=" << lam;
    // Lemma 4.3 is tight: over eight blocks the exact norm is within 1%.
    EXPECT_GE(local_norm_exact(pat, 8, lam), 0.99 * bound) << "lam=" << lam;
  }
}

TEST(LocalMatrix, ExactNormMonotoneInH) {
  const auto pat = paper_k2_pattern();
  const double lam = 0.5;
  double prev = 0.0;
  for (int h = 2; h <= 10; ++h) {
    const double cur = local_norm_exact(pat, h, lam);
    EXPECT_GE(cur, prev - 1e-10);
    prev = cur;
  }
}

TEST(LocalMatrix, BalancedPatternSaturatesGeneralBound) {
  // The worst pattern for period s is the balanced one: its Lemma 4.3 bound
  // equals the paper's F(λ, s).
  for (int s : {4, 6, 8}) {
    LocalPattern pat{{s / 2}, {s / 2}};
    for (double lam : {0.4, 0.55}) {
      EXPECT_NEAR(audit_bound(pat, lam),
                  norm_bound_function(lam, s, Duplex::kHalf), 1e-12);
    }
  }
}

TEST(LocalMatrix, UnbalancedPatternsBelowGeneralBound) {
  // Any split with L + R = s has λ√(p_R p_L) <= λ·√(p⌈s/2⌉ p⌊s/2⌋).
  const double lam = 0.5;
  const int s = 8;
  const double general = norm_bound_function(lam, s, Duplex::kHalf);
  for (int L = 1; L < s; ++L) {
    LocalPattern pat{{L}, {s - L}};
    EXPECT_LE(audit_bound(pat, lam), general + 1e-12) << "L=" << L;
  }
}

TEST(LocalMatrix, InvalidInputsRejected) {
  const auto pat = paper_k2_pattern();
  EXPECT_THROW((void)mx_matrix(pat, 1, 0.5), std::invalid_argument);  // h < k
  EXPECT_THROW((void)mx_matrix(pat, 4, 0.0), std::invalid_argument);
  EXPECT_THROW((void)mx_matrix(pat, 4, 1.0), std::invalid_argument);
  EXPECT_THROW((void)mx_matrix(LocalPattern{{0}, {1}}, 2, 0.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property sweep: random activation patterns never violate Lemma 4.2/4.3.
// ---------------------------------------------------------------------------

class LocalMatrixProperty : public ::testing::TestWithParam<int> {};

TEST_P(LocalMatrixProperty, RandomPatternsRespectTheLemmas) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int k = rng.uniform_int(1, 4);
  LocalPattern pat;
  for (int j = 0; j < k; ++j) {
    pat.lefts.push_back(rng.uniform_int(1, 3));
    pat.rights.push_back(rng.uniform_int(1, 3));
  }
  const double lam = 0.25 + 0.5 * rng.uniform01();
  const int h = k + rng.uniform_int(1, 4);

  // Lemma 4.3: exact norm below the analytic bound, and equal to it for
  // one block per period (Mx is then rank one).
  const double bound = audit_bound(pat, lam);
  const double exact = local_norm_exact(pat, h, lam);
  EXPECT_LE(exact, bound + 1e-9);
  if (k == 1) {
    EXPECT_NEAR(exact, bound, 1e-7 * bound);
  }

  // Lemma 4.2 inequality for Nx and Ox.
  const auto e = lemma42_semi_eigenvector(pat, h, lam);
  const auto ne = nx_matrix(pat, h, lam).mul(e);
  const auto oe = ox_matrix(pat, h, lam).mul(e);
  const double mu_n = lam * linalg::delay_polynomial(pat.right_total(), lam);
  const double mu_o = lam * linalg::delay_polynomial(pat.left_total(), lam);
  for (int i = 0; i < h; ++i) {
    EXPECT_LE(ne[static_cast<std::size_t>(i)],
              mu_n * e[static_cast<std::size_t>(i)] + 1e-10);
    EXPECT_LE(oe[static_cast<std::size_t>(i)],
              mu_o * e[static_cast<std::size_t>(i)] + 1e-10);
  }

  // ‖Mx‖² = ρ(Ox·Nx).
  const auto prod = ox_matrix(pat, h, lam).multiply(nx_matrix(pat, h, lam));
  EXPECT_NEAR(exact * exact, linalg::spectral_radius_nonnegative(prod).value, 1e-6);

  // The pattern's bound never exceeds the period-s general bound.
  EXPECT_LE(bound, norm_bound_function(lam, pat.period(), Duplex::kHalf) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomPatterns, LocalMatrixProperty,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace sysgo::core

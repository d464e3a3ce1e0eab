// The eight matrix-norm properties listed in Section 2 of the paper,
// verified on random non-negative matrices (the only kind the machinery
// uses).
#include <gtest/gtest.h>

#include <cmath>

#include "jacobi.hpp"
#include "support/matrix.hpp"
#include "support/power_iteration.hpp"
#include "util/rng.hpp"

namespace sysgo::linalg {
namespace {

Matrix random_nonneg(util::Rng& rng, std::size_t rows, std::size_t cols,
                     double density = 0.6) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (rng.flip(density)) m(i, j) = rng.uniform01();
  return m;
}

double norm(const Matrix& m) { return operator_norm_exact(m); }

class NormProperties : public ::testing::TestWithParam<int> {
 protected:
  util::Rng rng_{static_cast<std::uint64_t>(GetParam()) * 2654435761u + 9};
};

TEST_P(NormProperties, Property1And2_NonNegativityAndDefiniteness) {
  const auto m = random_nonneg(rng_, 4, 5);
  EXPECT_GE(norm(m), 0.0);
  EXPECT_DOUBLE_EQ(norm(Matrix(4, 5)), 0.0);
  if (m.max_abs() > 0.0) {
    EXPECT_GT(norm(m), 0.0);
  }
}

TEST_P(NormProperties, Property3_AbsoluteHomogeneity) {
  const auto m = random_nonneg(rng_, 4, 4);
  const double a = -2.5;
  EXPECT_NEAR(norm(m.scaled(a)), std::fabs(a) * norm(m), 1e-9);
}

TEST_P(NormProperties, Property4_EntrywiseMonotonicity) {
  const auto m = random_nonneg(rng_, 5, 4);
  auto bigger = m;
  // Increase a few entries.
  for (int k = 0; k < 3; ++k)
    bigger(static_cast<std::size_t>(rng_.uniform_int(0, 4)),
           static_cast<std::size_t>(rng_.uniform_int(0, 3))) += rng_.uniform01();
  ASSERT_TRUE(m.dominated_by(bigger));
  EXPECT_LE(norm(m), norm(bigger) + 1e-9);
}

TEST_P(NormProperties, Property5_TriangleInequality) {
  const auto a = random_nonneg(rng_, 4, 4);
  const auto b = random_nonneg(rng_, 4, 4);
  EXPECT_LE(norm(a.add(b)), norm(a) + norm(b) + 1e-9);
}

TEST_P(NormProperties, Property6_SubMultiplicativity) {
  const auto a = random_nonneg(rng_, 4, 5);
  const auto b = random_nonneg(rng_, 5, 3);
  EXPECT_LE(norm(a.multiply(b)), norm(a) * norm(b) + 1e-9);
}

TEST_P(NormProperties, Property7_PermutationInvariance) {
  const auto m = random_nonneg(rng_, 4, 4);
  // Swap two rows and two columns.
  Matrix p = m;
  for (std::size_t c = 0; c < 4; ++c) std::swap(p(0, c), p(2, c));
  for (std::size_t r = 0; r < 4; ++r) std::swap(p(r, 1), p(r, 3));
  EXPECT_NEAR(norm(p), norm(m), 1e-9);
}

TEST_P(NormProperties, Property8_BlockDiagonalMax) {
  const auto a = random_nonneg(rng_, 3, 3);
  const auto b = random_nonneg(rng_, 2, 2);
  Matrix block(5, 5);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) block(i, j) = a(i, j);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) block(3 + i, 3 + j) = b(i, j);
  EXPECT_NEAR(norm(block), std::max(norm(a), norm(b)), 1e-9);
}

TEST_P(NormProperties, SpectralRadiusBelowAnyNaturalNorm) {
  // ‖M‖ >= ρ(M) (used throughout Section 2).
  auto m = random_nonneg(rng_, 4, 4);
  EXPECT_GE(norm(m) + 1e-9, spectral_radius_nonnegative(m).value);
}

INSTANTIATE_TEST_SUITE_P(RandomMatrices, NormProperties, ::testing::Range(0, 10));

}  // namespace
}  // namespace sysgo::linalg

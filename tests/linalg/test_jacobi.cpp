#include "jacobi.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/power_iteration.hpp"
#include "util/rng.hpp"

namespace sysgo::linalg {
namespace {

TEST(Jacobi, DiagonalMatrix) {
  Matrix m(3, 3);
  m(0, 0) = 2.0;
  m(1, 1) = -1.0;
  m(2, 2) = 5.0;
  const auto res = jacobi_eigenvalues(m);
  EXPECT_TRUE(res.converged);
  ASSERT_EQ(res.eigenvalues.size(), 3u);
  EXPECT_NEAR(res.eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(res.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(res.eigenvalues[2], -1.0, 1e-12);
}

TEST(Jacobi, TwoByTwoClosedForm) {
  // [[2, 1], [1, 2]]: eigenvalues 3 and 1.
  Matrix m(2, 2, {2, 1, 1, 2});
  const auto res = jacobi_eigenvalues(m);
  EXPECT_NEAR(res.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(res.eigenvalues[1], 1.0, 1e-12);
}

TEST(Jacobi, TraceAndFrobeniusPreserved) {
  util::Rng rng(5);
  const std::size_t n = 6;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform01() - 0.5;
      m(i, j) = v;
      m(j, i) = v;
    }
  const auto res = jacobi_eigenvalues(m);
  ASSERT_TRUE(res.converged);
  double trace = 0.0, sum_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += m(i, i);
  for (double e : res.eigenvalues) sum_sq += e * e;
  double eig_trace = 0.0;
  for (double e : res.eigenvalues) eig_trace += e;
  EXPECT_NEAR(eig_trace, trace, 1e-10);
  EXPECT_NEAR(std::sqrt(sum_sq), m.frobenius_norm(), 1e-10);
}

TEST(Jacobi, RejectsNonSymmetric) {
  Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_THROW((void)jacobi_eigenvalues(m), std::invalid_argument);
  EXPECT_THROW((void)jacobi_eigenvalues(Matrix(2, 3)), std::invalid_argument);
}

TEST(Jacobi, EmptyMatrix) {
  const auto res = jacobi_eigenvalues(Matrix(0, 0));
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.eigenvalues.empty());
}

TEST(Jacobi, OperatorNormExactMatchesRankOne) {
  Matrix m(2, 3);
  const double u[2] = {1.0, 2.0};
  const double v[3] = {3.0, 0.0, 4.0};
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = u[r] * v[c];
  EXPECT_NEAR(operator_norm_exact(m), std::sqrt(5.0) * 5.0, 1e-10);
}

// Cross-validation sweep: power iteration agrees with Jacobi on random
// non-negative matrices (the library's norm workloads).
class JacobiCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(JacobiCrossCheck, PowerIterationMatchesJacobi) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  const std::size_t rows = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  const std::size_t cols = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (rng.flip(0.6)) m(i, j) = rng.uniform01();
  const double exact = operator_norm_exact(m);
  const double power = operator_norm(m).value;
  EXPECT_NEAR(power, exact, 1e-7 * std::max(1.0, exact));
}

INSTANTIATE_TEST_SUITE_P(RandomMatrices, JacobiCrossCheck, ::testing::Range(0, 25));

}  // namespace
}  // namespace sysgo::linalg

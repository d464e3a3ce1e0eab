#include "support/power_iteration.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace sysgo::linalg {
namespace {

TEST(PowerIteration, NormOfDiagonalMatrix) {
  Matrix m(3, 3);
  m(0, 0) = 1.0;
  m(1, 1) = 5.0;
  m(2, 2) = 2.0;
  const auto res = operator_norm(m);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.value, 5.0, 1e-9);
}

TEST(PowerIteration, NormOfRankOneMatrix) {
  // uvᵀ has norm |u|·|v|.
  Matrix m(2, 3);
  const double u[2] = {1.0, 2.0};
  const double v[3] = {3.0, 0.0, 4.0};
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = u[r] * v[c];
  const auto res = operator_norm(m);
  EXPECT_NEAR(res.value, std::sqrt(5.0) * 5.0, 1e-9);
}

TEST(PowerIteration, NormOfZeroMatrixIsZero) {
  const auto res = operator_norm(Matrix(4, 4));
  EXPECT_TRUE(res.converged);
  EXPECT_DOUBLE_EQ(res.value, 0.0);
}

TEST(PowerIteration, EmptyMatrix) {
  const auto res = operator_norm(Matrix(0, 0));
  EXPECT_TRUE(res.converged);
  EXPECT_DOUBLE_EQ(res.value, 0.0);
}

TEST(PowerIteration, SymmetricMatrixNormEqualsSpectralRadius) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  Matrix m(2, 2, {2, 1, 1, 2});
  EXPECT_NEAR(operator_norm(m).value, 3.0, 1e-9);
  EXPECT_NEAR(spectral_radius_nonnegative(m).value, 3.0, 1e-9);
}

TEST(PowerIteration, SpectralRadiusOfPermutationIsOne) {
  Matrix m(3, 3);
  m(0, 1) = 1.0;
  m(1, 2) = 1.0;
  m(2, 0) = 1.0;
  EXPECT_NEAR(spectral_radius_nonnegative(m).value, 1.0, 1e-9);
}

TEST(PowerIteration, NormDominatesSpectralRadius) {
  // Nonnegative, non-symmetric.
  Matrix m(2, 2, {0.5, 0.8, 0.1, 0.3});
  const double norm = operator_norm(m).value;
  const double rho = spectral_radius_nonnegative(m).value;
  EXPECT_GE(norm + 1e-12, rho);
}

TEST(PowerIteration, SparseMatchesDense) {
  SparseMatrix s(3, 3, {{0, 1, 0.7}, {1, 2, 0.7}, {2, 0, 0.7}, {0, 0, 0.2}});
  const double ns = operator_norm(s).value;
  const double nd = operator_norm(s.to_dense()).value;
  EXPECT_NEAR(ns, nd, 1e-9);
}

TEST(PowerIteration, GeometricBoundsNormOfUpperShift) {
  // Nilpotent shift with λ weights: norm bounded by row-sum/col-sum product.
  const double lam = 0.5;
  Matrix m(10, 10);
  for (std::size_t i = 0; i + 1 < 10; ++i) m(i, i + 1) = lam;
  const double norm = operator_norm(m).value;
  EXPECT_NEAR(norm, lam, 1e-9);  // single diagonal: norm = λ
}

TEST(PowerIteration, ParallelSparseMatchesSerial) {
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < 5000; ++i)
    trips.push_back({(i * 13) % 300, (i * 7) % 300, 0.01 + (i % 5) * 0.01});
  SparseMatrix m(300, 300, std::move(trips));
  PowerIterationOptions par;
  par.parallel = true;
  EXPECT_NEAR(operator_norm(m).value, operator_norm(m, par).value, 1e-8);
}

}  // namespace
}  // namespace sysgo::linalg

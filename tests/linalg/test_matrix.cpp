#include "support/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace sysgo::linalg {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 0.0);
}

TEST(Matrix, ConstructFromDataValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, {1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, {1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const auto id = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, MatVec) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  const auto y = m.mul(std::vector<double>{1, 0, -1});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(Matrix, TransposeMatVecMatchesExplicitTranspose) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  const std::vector<double> x{2, -1};
  const auto y1 = m.mul_transpose(x);
  const auto y2 = m.transpose().mul(x);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(Matrix, MultiplyAgainstHandComputed) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {0, 1, 1, 0});
  const auto c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 2);
  EXPECT_THROW((void)a.multiply(b), std::invalid_argument);
}

TEST(Matrix, AddAndScale) {
  Matrix a(1, 2, {1, 2});
  Matrix b(1, 2, {10, 20});
  const auto sum = a.add(b);
  EXPECT_DOUBLE_EQ(sum(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(sum(0, 1), 22.0);
  const auto scaled = a.scaled(-2.0);
  EXPECT_DOUBLE_EQ(scaled(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(scaled(0, 1), -4.0);
}

TEST(Matrix, ApproxEqualAndDominance) {
  Matrix a(1, 2, {1.0, 2.0});
  Matrix b(1, 2, {1.0 + 1e-14, 2.0});
  EXPECT_TRUE(a.approx_equal(b, 1e-12));
  EXPECT_FALSE(a.approx_equal(Matrix(1, 2, {1.1, 2.0}), 1e-12));
  EXPECT_TRUE(a.dominated_by(Matrix(1, 2, {1.5, 2.0})));
  EXPECT_FALSE(Matrix(1, 2, {1.5, 2.0}).dominated_by(a));
  EXPECT_FALSE(a.approx_equal(Matrix(2, 1, {1, 2})));
}

TEST(Matrix, SymmetryDetection) {
  Matrix s(2, 2, {1, 5, 5, 2});
  EXPECT_TRUE(s.is_symmetric());
  Matrix a(2, 2, {1, 5, 4, 2});
  EXPECT_FALSE(a.is_symmetric());
  EXPECT_FALSE(Matrix(2, 3).is_symmetric());
}

TEST(Matrix, Norms) {
  Matrix m(2, 2, {1, -2, -3, 4});
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), std::sqrt(1.0 + 4 + 9 + 16));
  EXPECT_DOUBLE_EQ(m.inf_norm(), 7.0);  // row 1: 3 + 4
  EXPECT_DOUBLE_EQ(m.one_norm(), 6.0);  // col 1: 2 + 4
}

TEST(Matrix, StrContainsEntries) {
  Matrix m(1, 2, {1.25, -3.5});
  const auto s = m.str(2);
  EXPECT_NE(s.find("1.25"), std::string::npos);
  EXPECT_NE(s.find("-3.50"), std::string::npos);
}

}  // namespace
}  // namespace sysgo::linalg

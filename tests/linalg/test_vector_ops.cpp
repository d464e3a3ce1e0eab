#include "support/vector_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace sysgo::linalg {
namespace {

TEST(VectorOps, Norm2) {
  std::vector<double> v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm2(std::vector<double>{}), 0.0);
}

TEST(VectorOps, NormInfAndOne) {
  std::vector<double> v{-3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(norm_inf(v), 3.0);
  EXPECT_DOUBLE_EQ(norm1(v), 6.0);
}

TEST(VectorOps, Dot) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0 - 10.0 + 18.0);
}

TEST(VectorOps, ScaleInPlace) {
  std::vector<double> v{1.0, -2.0};
  scale(v, 3.0);
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], -6.0);
}

TEST(VectorOps, NormalizeReturnsPreviousNorm) {
  std::vector<double> v{0.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(normalize(v), 5.0);
  EXPECT_NEAR(norm2(v), 1.0, 1e-15);
}

TEST(VectorOps, NormalizeZeroVectorIsNoop) {
  std::vector<double> v{0.0, 0.0};
  EXPECT_DOUBLE_EQ(normalize(v), 0.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
}

TEST(VectorOps, WeightedMaxNormMatchesLemma21Definition) {
  // |z|_x = max |z_i / x_i|
  std::vector<double> z{2.0, -6.0};
  std::vector<double> x{1.0, 3.0};
  EXPECT_DOUBLE_EQ(weighted_max_norm(z, x), 2.0);
}

TEST(VectorOps, WeightedMaxNormIsANorm) {
  std::vector<double> x{0.5, 2.0, 1.0};
  std::vector<double> a{1.0, -1.0, 0.5};
  std::vector<double> b{-0.5, 0.25, 2.0};
  // Triangle inequality.
  std::vector<double> sum(3);
  for (int i = 0; i < 3; ++i)
    sum[static_cast<std::size_t>(i)] =
        a[static_cast<std::size_t>(i)] + b[static_cast<std::size_t>(i)];
  EXPECT_LE(weighted_max_norm(sum, x),
            weighted_max_norm(a, x) + weighted_max_norm(b, x) + 1e-15);
  // Homogeneity.
  std::vector<double> a2(a);
  scale(a2, -2.0);
  EXPECT_NEAR(weighted_max_norm(a2, x), 2.0 * weighted_max_norm(a, x), 1e-15);
  // Zero iff zero vector.
  EXPECT_DOUBLE_EQ(weighted_max_norm(std::vector<double>{0, 0, 0}, x), 0.0);
  EXPECT_GT(weighted_max_norm(a, x), 0.0);
}

}  // namespace
}  // namespace sysgo::linalg

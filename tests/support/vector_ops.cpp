#include "support/vector_ops.hpp"

#include <cassert>
#include <cmath>

namespace sysgo::linalg {

double norm2(std::span<const double> x) noexcept {
  double s = 0.0;
  for (double v : x) s += v * v;
  return std::sqrt(s);
}

double norm_inf(std::span<const double> x) noexcept {
  double m = 0.0;
  for (double v : x) m = std::max(m, std::fabs(v));
  return m;
}

double norm1(std::span<const double> x) noexcept {
  double s = 0.0;
  for (double v : x) s += std::fabs(v);
  return s;
}

double dot(std::span<const double> x, std::span<const double> y) noexcept {
  assert(x.size() == y.size());
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

void scale(std::span<double> x, double a) noexcept {
  for (double& v : x) v *= a;
}

double normalize(std::span<double> x) noexcept {
  const double n = norm2(x);
  if (n > 0.0) scale(x, 1.0 / n);
  return n;
}

double weighted_max_norm(std::span<const double> z, std::span<const double> x) {
  assert(z.size() == x.size());
  double m = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    assert(x[i] > 0.0);
    m = std::max(m, std::fabs(z[i] / x[i]));
  }
  return m;
}

}  // namespace sysgo::linalg

#include "linalg/polynomial.hpp"

namespace sysgo::linalg {

double delay_polynomial(int i, double lambda) noexcept {
  if (i <= 0) return 0.0;
  const double l2 = lambda * lambda;
  double term = 1.0;
  double sum = 0.0;
  // With l2 <= 1 the terms never grow, so once one no longer moves the
  // sum no later one can (rounding is monotone): stopping there returns
  // the full loop's value bit for bit.
  const bool converges = l2 <= 1.0;
  for (int j = 0; j < i; ++j) {
    if (converges && sum + term == sum) break;
    sum += term;
    term *= l2;
  }
  return sum;
}

double delay_polynomial_limit(double lambda) noexcept {
  return 1.0 / (1.0 - lambda * lambda);
}

double geometric_sum(int k, double lambda) noexcept {
  // Same early stop as delay_polynomial, valid for 0 <= λ <= 1 only (a
  // negative ratio alternates the terms' signs).
  const bool converges = lambda >= 0.0 && lambda <= 1.0;
  double term = lambda;
  double sum = 0.0;
  for (int j = 1; j <= k; ++j) {
    if (converges && sum + term == sum) break;
    sum += term;
    term *= lambda;
  }
  return sum;
}

double geometric_sum_limit(double lambda) noexcept {
  return lambda / (1.0 - lambda);
}

}  // namespace sysgo::linalg

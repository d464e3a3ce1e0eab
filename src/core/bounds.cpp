#include "core/bounds.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/polynomial.hpp"
#include "linalg/roots.hpp"

namespace sysgo::core {

double norm_bound_function(double lambda, int s, Duplex duplex) {
  if (duplex == Duplex::kHalf) {
    if (s == kUnboundedPeriod) return lambda * linalg::delay_polynomial_limit(lambda);
    const int hi = s - s / 2;    // ceil(s/2); s + 1 overflows at INT_MAX
    const int lo = s / 2;        // floor(s/2)
    return lambda * std::sqrt(linalg::delay_polynomial(hi, lambda)) *
           std::sqrt(linalg::delay_polynomial(lo, lambda));
  }
  if (s == kUnboundedPeriod) return linalg::geometric_sum_limit(lambda);
  return linalg::geometric_sum(s - 1, lambda);
}

double lambda_star(int s, Duplex duplex) {
  if (s != kUnboundedPeriod && s < 3)
    throw std::invalid_argument(
        "lambda_star: period must be >= 3 (s = 2 degenerates to a cycle)");
  constexpr double kLo = 1e-9;
  constexpr double kHi = 1.0 - 1e-12;
  const auto res = linalg::bisect(
      [s, duplex](double l) { return norm_bound_function(l, s, duplex) - 1.0; },
      kLo, kHi);
  if (!res.bracketed)
    throw std::runtime_error("lambda_star: root not bracketed (internal error)");
  return res.x;
}

double e_coefficient(double lambda) { return 1.0 / std::log2(1.0 / lambda); }

double e_general(int s, Duplex duplex) { return e_coefficient(lambda_star(s, duplex)); }

int theorem41_round_bound(double lambda, std::int64_t n) {
  if (n < 2) return 0;
  if (!(lambda > 0.0 && lambda < 1.0))
    throw std::invalid_argument("theorem41_round_bound: need 0 < lambda < 1");
  const double rhs = std::log2(static_cast<double>(n - 1)) + 1.0;
  const double log_inv = std::log2(1.0 / lambda);
  // LHS t·log2(1/λ) + 2·log2(t) is increasing in t; scan from 1.
  int t = 1;
  while (t * log_inv + 2.0 * std::log2(static_cast<double>(t)) < rhs) ++t;
  return t;
}

}  // namespace sysgo::core

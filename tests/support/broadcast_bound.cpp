#include "support/broadcast_bound.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/roots.hpp"

namespace sysgo::core {

double broadcast_growth_root(int d) {
  if (d < 2) throw std::invalid_argument("broadcast_growth_root: need d >= 2");
  // f(x) = x^d − (x^{d−1} + … + 1) = x^d − (x^d − 1)/(x − 1); use the
  // polynomial form directly for stability.
  const auto f = [d](double x) {
    double pow = 1.0;
    double sum = 0.0;
    for (int i = 0; i < d; ++i) {
      sum += pow;
      pow *= x;
    }
    return pow - sum;  // pow = x^d after the loop
  };
  const auto res = linalg::bisect(f, 1.0 + 1e-12, 2.0);
  if (!res.bracketed)
    throw std::runtime_error("broadcast_growth_root: root not bracketed");
  return res.x;
}

double broadcast_coefficient(int d) {
  return 1.0 / std::log2(broadcast_growth_root(d));
}

}  // namespace sysgo::core

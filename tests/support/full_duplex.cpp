#include "support/full_duplex.hpp"

#include <cmath>
#include <stdexcept>

#include "support/power_iteration.hpp"

namespace sysgo::core {

linalg::Matrix full_duplex_local_matrix(int t, int s, double lambda) {
  if (t < 1 || s < 2) throw std::invalid_argument("full_duplex_local_matrix: bad size");
  if (!(lambda > 0.0 && lambda < 1.0))
    throw std::invalid_argument("full_duplex_local_matrix: need 0 < lambda < 1");
  linalg::Matrix m(static_cast<std::size_t>(t), static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i)
    for (int delta = 1; delta <= s - 1 && i + delta < t; ++delta)
      m(static_cast<std::size_t>(i), static_cast<std::size_t>(i + delta)) =
          std::pow(lambda, delta);
  return m;
}

double full_duplex_norm_exact(int t, int s, double lambda) {
  return linalg::operator_norm(full_duplex_local_matrix(t, s, lambda)).value;
}

}  // namespace sysgo::core

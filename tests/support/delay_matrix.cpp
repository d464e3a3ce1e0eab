#include "support/delay_matrix.hpp"

#include <cmath>
#include <stdexcept>

#include "support/power_iteration.hpp"

namespace sysgo::core {

linalg::SparseMatrix delay_matrix(const DelayDigraph& dg, double lambda) {
  if (!(lambda > 0.0 && lambda < 1.0))
    throw std::invalid_argument("delay_matrix: need 0 < lambda < 1");
  std::vector<linalg::Triplet> entries;
  entries.reserve(dg.arc_count());
  for (const auto& arc : dg.arcs())
    entries.push_back({static_cast<std::size_t>(arc.from),
                       static_cast<std::size_t>(arc.to),
                       std::pow(lambda, arc.weight)});
  return linalg::SparseMatrix(dg.node_count(), dg.node_count(), std::move(entries));
}

double delay_matrix_norm(const DelayDigraph& dg, double lambda, bool parallel) {
  const auto m = delay_matrix(dg, lambda);
  linalg::PowerIterationOptions opts;
  opts.parallel = parallel;
  return linalg::operator_norm(m, opts).value;
}

}  // namespace sysgo::core

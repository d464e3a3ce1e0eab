#include "topology/butterfly.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "topology/words.hpp"

namespace sysgo::topology {

std::int64_t butterfly_order(int d, int D) noexcept {
  return sat_mul(D + 1, ipow(d, D));
}

int butterfly_index(std::int64_t word, int level, int d, int D) noexcept {
  return static_cast<int>(level * ipow(d, D) + word);
}

ButterflyVertex butterfly_vertex(int index, int d, int D) noexcept {
  const std::int64_t base = ipow(d, D);
  return {index % base, static_cast<int>(index / base)};
}

graph::Digraph butterfly(int d, int D) {
  if (d < 2 || D < 1) throw std::invalid_argument("butterfly: need d >= 2, D >= 1");
  const std::int64_t n = butterfly_order(d, D);
  if (n > (1 << 24)) throw std::invalid_argument("butterfly: too large");
  const std::int64_t words = ipow(d, D);
  std::vector<graph::Arc> arcs;
  arcs.reserve(static_cast<std::size_t>(2 * D * words * d));
  for (int l = 1; l <= D; ++l) {
    for (std::int64_t x = 0; x < words; ++x) {
      const int u = butterfly_index(x, l, d, D);
      for (int a = 0; a < d; ++a) {
        const std::int64_t y = with_digit(x, l - 1, a, d);
        const int v = butterfly_index(y, l - 1, d, D);
        arcs.push_back({u, v});  // pairwise opposite arcs
        arcs.push_back({v, u});
      }
    }
  }
  return graph::Digraph(static_cast<int>(n), std::move(arcs));
}

}  // namespace sysgo::topology

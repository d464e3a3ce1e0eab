#include "topology/wrapped_butterfly.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "topology/words.hpp"

namespace sysgo::topology {

std::int64_t wrapped_butterfly_order(int d, int D) noexcept {
  return sat_mul(D, ipow(d, D));
}

int wrapped_butterfly_index(std::int64_t word, int level, int d, int D) noexcept {
  (void)D;
  return static_cast<int>(level * ipow(d, D) + word);
}

WrappedButterflyVertex wrapped_butterfly_vertex(int index, int d, int D) noexcept {
  (void)D;
  const std::int64_t base = ipow(d, D);
  return {index % base, static_cast<int>(index / base)};
}

graph::Digraph wrapped_butterfly_directed(int d, int D) {
  if (d < 2 || D < 2)
    throw std::invalid_argument("wrapped_butterfly: need d >= 2, D >= 2");
  const std::int64_t n = wrapped_butterfly_order(d, D);
  if (n > (1 << 24)) throw std::invalid_argument("wrapped_butterfly: too large");
  const std::int64_t words = ipow(d, D);
  std::vector<graph::Arc> arcs;
  arcs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  for (int l = 0; l < D; ++l) {
    const int target_level = (l > 0) ? l - 1 : D - 1;
    const int changed_digit = (l > 0) ? l - 1 : D - 1;
    for (std::int64_t x = 0; x < words; ++x) {
      const int u = wrapped_butterfly_index(x, l, d, D);
      for (int a = 0; a < d; ++a) {
        const std::int64_t y = with_digit(x, changed_digit, a, d);
        arcs.push_back({u, wrapped_butterfly_index(y, target_level, d, D)});
      }
    }
  }
  return graph::Digraph(static_cast<int>(n), std::move(arcs));
}

graph::Digraph wrapped_butterfly(int d, int D) {
  return wrapped_butterfly_directed(d, D).symmetric_closure();
}

}  // namespace sysgo::topology

#include "topology/de_bruijn.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "topology/words.hpp"

namespace sysgo::topology {

std::int64_t de_bruijn_order(int d, int D) noexcept { return ipow(d, D); }

graph::Digraph de_bruijn_directed(int d, int D) {
  if (d < 2 || D < 1) throw std::invalid_argument("de_bruijn: need d >= 2, D >= 1");
  const std::int64_t n = de_bruijn_order(d, D);
  if (n > (1 << 24)) throw std::invalid_argument("de_bruijn: too large");
  const std::int64_t tail_mod = ipow(d, D - 1);
  std::vector<graph::Arc> arcs;
  arcs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  for (std::int64_t x = 0; x < n; ++x)
    for (int a = 0; a < d; ++a)
      arcs.push_back({static_cast<int>(x), static_cast<int>((x % tail_mod) * d + a)});
  return graph::Digraph(static_cast<int>(n), std::move(arcs));
}

graph::Digraph de_bruijn(int d, int D) {
  return de_bruijn_directed(d, D).symmetric_closure();
}

}  // namespace sysgo::topology

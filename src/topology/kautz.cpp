#include "topology/kautz.hpp"

#include <stdexcept>
#include <utility>

#include "topology/words.hpp"

namespace sysgo::topology {

std::int64_t kautz_order(int d, int D) noexcept {
  return sat_mul(d + 1, ipow(d, D - 1));
}

std::vector<std::vector<int>> kautz_words(int d, int D) {
  std::vector<std::vector<int>> words;
  words.reserve(static_cast<std::size_t>(kautz_order(d, D)));
  // Enumerate left-to-right (from digit D-1 down to 0), lexicographically.
  std::vector<int> cur(static_cast<std::size_t>(D));
  auto rec = [&](auto&& self, int pos) -> void {  // pos: D-1 .. 0
    if (pos < 0) {
      words.push_back(cur);
      return;
    }
    for (int a = 0; a <= d; ++a) {
      if (pos < D - 1 && a == cur[static_cast<std::size_t>(pos) + 1]) continue;
      cur[static_cast<std::size_t>(pos)] = a;
      self(self, pos - 1);
    }
  };
  rec(rec, D - 1);
  return words;
}

graph::Digraph kautz_directed(int d, int D) {
  if (d < 2 || D < 1) throw std::invalid_argument("kautz: need d >= 2, D >= 1");
  const std::int64_t n = kautz_order(d, D);
  if (n > (1 << 24)) throw std::invalid_argument("kautz: too large");

  // Rank r of word x_{D-1}…x_0 in kautz_words order: the top letter, then
  // per lower position the index e of x_j among the d letters ≠ x_{j+1}.
  // The left shift x_{D-2}…x_0·a keeps those indices and appends a's, so
  // the successors of r are base·d + k (k < d) with
  // base = x_{D-2}·d^{D-2} + (r mod d^{D-2}).
  std::vector<graph::Arc> arcs;
  arcs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  if (D == 1) {
    for (int x = 0; x <= d; ++x)
      for (int a = 0; a <= d; ++a)
        if (a != x) arcs.push_back({x, a});
  } else {
    const std::int64_t low = ipow(d, D - 2);
    const std::int64_t block = low * d;  // d^{D-1}: words per top letter
    for (std::int64_t r = 0; r < n; ++r) {
      const std::int64_t top = r / block;
      const std::int64_t e = (r / low) % d;
      const std::int64_t next_top = e < top ? e : e + 1;
      const std::int64_t base = next_top * low + r % low;
      for (int k = 0; k < d; ++k)
        arcs.push_back({static_cast<int>(r), static_cast<int>(base * d + k)});
    }
  }
  return graph::Digraph(static_cast<int>(n), std::move(arcs));
}

graph::Digraph kautz(int d, int D) { return kautz_directed(d, D).symmetric_closure(); }

}  // namespace sysgo::topology

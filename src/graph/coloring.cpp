#include "graph/coloring.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace sysgo::graph {

EdgeColoring greedy_edge_coloring(const Digraph& g) {
  EdgeColoring out;
  out.edges = g.undirected_edges();
  out.colors.resize(out.edges.size());

  // First fit never exceeds 2Δ − 1 colors, so W words of color mask per
  // vertex (64·W > 2Δ) always hold a free bit.
  const auto n = static_cast<std::size_t>(g.vertex_count());
  std::vector<int> degree(n, 0);
  for (const auto& [u, v] : out.edges) {
    ++degree[static_cast<std::size_t>(u)];
    ++degree[static_cast<std::size_t>(v)];
  }
  const int max_degree = n == 0 ? 0 : *std::max_element(degree.begin(), degree.end());
  const auto words = static_cast<std::size_t>(2 * max_degree / 64 + 1);
  std::vector<std::uint64_t> used(n * words, 0);

  for (std::size_t i = 0; i < out.edges.size(); ++i) {
    const auto [u, v] = out.edges[i];
    std::uint64_t* const mu = used.data() + static_cast<std::size_t>(u) * words;
    std::uint64_t* const mv = used.data() + static_cast<std::size_t>(v) * words;
    std::size_t w = 0;
    while ((mu[w] | mv[w]) == ~std::uint64_t{0}) ++w;
    const int bit = std::countr_one(mu[w] | mv[w]);
    mu[w] |= std::uint64_t{1} << bit;
    mv[w] |= std::uint64_t{1} << bit;
    const int c = static_cast<int>(w) * 64 + bit;
    out.colors[i] = c;
    out.color_count = std::max(out.color_count, c + 1);
  }
  return out;
}

bool is_proper_edge_coloring(const EdgeColoring& c, int n) {
  if (c.edges.size() != c.colors.size()) return false;
  // (vertex, color) pairs must be unique.
  std::vector<std::pair<long long, int>> seen;
  seen.reserve(2 * c.edges.size());
  for (std::size_t i = 0; i < c.edges.size(); ++i) {
    const auto [u, v] = c.edges[i];
    const int col = c.colors[i];
    if (u < 0 || u >= n || v < 0 || v >= n || col < 0) return false;
    seen.emplace_back(static_cast<long long>(u) * c.edges.size() + col, 0);
    seen.emplace_back(static_cast<long long>(v) * c.edges.size() + col, 0);
  }
  std::sort(seen.begin(), seen.end());
  return std::adjacent_find(seen.begin(), seen.end()) == seen.end();
}

}  // namespace sysgo::graph

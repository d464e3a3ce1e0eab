// Proper edge colorings.
//
// Periodic ("traffic-light") protocols in the sense of Liestman–Richards
// activate one color class per round; any proper edge coloring therefore
// induces a systolic schedule.  Greedy coloring uses at most 2Δ−1 colors,
// which is enough for protocol construction (we never need optimality).
// The edge order fixes the coloring, and with it every schedule built on
// it: edges are taken in undirected_edges() order and each gets the first
// color free at both ends, read off flat per-vertex 64-bit color masks.
#pragma once

#include <utility>
#include <vector>

#include "graph/digraph.hpp"

namespace sysgo::graph {

struct EdgeColoring {
  /// Edge list (u < v) in the order colors are indexed.
  std::vector<std::pair<int, int>> edges;
  /// colors[i] is the color of edges[i], in [0, color_count).
  std::vector<int> colors;
  int color_count = 0;
};

/// Greedy (first-fit) proper edge coloring of the undirected support of g,
/// in O(m · Δ/64) time.
[[nodiscard]] EdgeColoring greedy_edge_coloring(const Digraph& g);

/// Validity check: no two edges of equal color share an endpoint.
[[nodiscard]] bool is_proper_edge_coloring(const EdgeColoring& c, int n);

}  // namespace sysgo::graph

// Reference schedule build — a test oracle, compiled into the graph test
// binary only.
//
// The straightforward sort-based implementations of every step of the
// schedule build (digraph CSR, Kautz arcs, undirected edge list, greedy
// edge coloring, round assembly and compile), kept so the linear-time
// library versions can be checked against them output for output and
// error message for error message.  They share no code with the library
// steps they mirror (the reference Kautz builder only stores its arcs in a
// Digraph, whose finalize is checked against reference::finalize).  No
// library code calls them.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/digraph.hpp"
#include "protocol/compiled.hpp"
#include "protocol/systolic.hpp"

namespace sysgo::graph::reference {

/// CSR of an arc list: arcs sorted by (tail, head) and deduplicated,
/// out-rows and in-rows sorted.
struct Csr {
  std::vector<Arc> arcs;
  std::vector<std::size_t> out_offsets, in_offsets;
  std::vector<int> out_adj, in_adj;
};

/// Sort, dedup, count and fill; throws std::out_of_range on a bad endpoint.
[[nodiscard]] Csr finalize(int n, std::vector<Arc> arcs);

/// {u, v} with u < v per unordered pair of the arc list, sorted, self-loops
/// dropped.
[[nodiscard]] std::vector<std::pair<int, int>> undirected_edges(
    std::span<const Arc> arcs);

/// First-fit coloring of undirected_edges(g.arcs()) with per-vertex
/// vector<char> color sets.
[[nodiscard]] EdgeColoring greedy_edge_coloring(const Digraph& g);

/// Kautz digraph from its word enumeration (topology::kautz_words) and a
/// hash map from packed words to ranks.
[[nodiscard]] Digraph kautz_directed(int d, int D);

/// Rounds assembled arc by arc from the reference coloring, then sorted.
[[nodiscard]] protocol::SystolicSchedule edge_coloring_schedule(
    const Digraph& g, protocol::Mode mode);

/// CompiledSchedule's tables, as plain vectors.
struct Compiled {
  std::vector<std::int32_t> arc_begin{0};
  std::vector<Arc> arcs;
  std::vector<std::int32_t> pair_begin;  // full-duplex only
  std::vector<Arc> pairs;                // full-duplex only
  std::vector<std::int32_t> partner;     // round count * n
  std::vector<protocol::RoundRole> role; // round count * n
};

/// Validate every round as authored (sorted copy plus binary search for
/// full-duplex opposites), then copy and canonicalize it.  Throws
/// std::invalid_argument with CompiledSchedule::compile's messages.
[[nodiscard]] Compiled compile(const protocol::SystolicSchedule& s,
                               const Digraph* g = nullptr);

}  // namespace sysgo::graph::reference

#include "reference_search.hpp"

#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

namespace sysgo::search {
namespace {

using Links = std::vector<graph::Arc>;

/// Every non-empty matching of g as the arcs it activates.  Half duplex: a
/// set of arcs, no two sharing a vertex.  Full duplex: a set of opposite
/// pairs, no two sharing a vertex, each pair listed as both its arcs.
std::vector<Links> all_matchings(const graph::Digraph& g, protocol::Mode mode) {
  const int n = g.vertex_count();
  if (n > 8) throw std::invalid_argument("reference search: n <= 8 required");
  Links links;  // half: arcs; full: one arc (u < v) per opposite pair
  for (const graph::Arc& a : g.arcs()) {
    if (a.tail == a.head) continue;
    if (mode == protocol::Mode::kFullDuplex &&
        (a.tail > a.head || !g.has_arc(a.head, a.tail)))
      continue;
    links.push_back(a);
  }
  if (links.size() > 20)
    throw std::invalid_argument("reference search: too many links");
  std::vector<Links> out;
  for (std::uint32_t subset = 1; subset < (1u << links.size()); ++subset) {
    Links arcs;
    std::uint32_t busy = 0;
    bool matching = true;
    for (std::size_t i = 0; i < links.size() && matching; ++i) {
      if (!((subset >> i) & 1u)) continue;
      const graph::Arc& a = links[i];
      const std::uint32_t ends = (1u << a.tail) | (1u << a.head);
      matching = (busy & ends) == 0;
      busy |= ends;
      arcs.push_back(a);
      if (mode == protocol::Mode::kFullDuplex)
        arcs.push_back({a.head, a.tail});
    }
    if (matching) out.push_back(std::move(arcs));
  }
  return out;
}

/// Breadth-first search from `start` over the states (packed into 64 bits)
/// that `next` maps through a round's arcs; the depth at which `done`
/// first holds, or -1.
template <class Next, class Done>
int bfs(std::uint64_t start, const std::vector<Links>& moves, int max_rounds,
        Next next, Done done) {
  if (done(start)) return 0;
  std::unordered_set<std::uint64_t> seen{start};
  std::vector<std::uint64_t> frontier{start};
  for (int depth = 1; depth <= max_rounds && !frontier.empty(); ++depth) {
    std::vector<std::uint64_t> layer;
    for (const std::uint64_t s : frontier)
      for (const Links& arcs : moves) {
        const std::uint64_t t = next(s, arcs);
        if (done(t)) return depth;
        if (seen.insert(t).second) layer.push_back(t);
      }
    frontier = std::move(layer);
  }
  return -1;
}

}  // namespace

int reference_gossip_rounds(const graph::Digraph& g, protocol::Mode mode,
                            int max_rounds) {
  const int n = g.vertex_count();
  const auto moves = all_matchings(g, mode);
  // Byte v of a state is row v: bit u set when v knows u's item.
  const auto row = [](std::uint64_t s, int v) {
    return (s >> (8 * v)) & 0xffu;
  };
  std::uint64_t start = 0, goal = 0;
  for (int v = 0; v < n; ++v) {
    start |= std::uint64_t{1} << (9 * v);
    goal |= std::uint64_t{(1u << n) - 1u} << (8 * v);
  }
  return bfs(
      start, moves, max_rounds,
      [&row](std::uint64_t rows, const Links& arcs) {
        std::uint64_t out = rows;  // rows: the round's snapshot
        for (const graph::Arc& a : arcs)
          out |= row(rows, a.tail) << (8 * a.head);
        return out;
      },
      [goal](std::uint64_t rows) { return rows == goal; });
}

int reference_broadcast_rounds(const graph::Digraph& g, protocol::Mode mode,
                               int source, int max_rounds) {
  const int n = g.vertex_count();
  const auto moves = all_matchings(g, mode);
  const std::uint64_t full = (std::uint64_t{1} << n) - 1u;
  return bfs(
      std::uint64_t{1} << source, moves, max_rounds,
      [](std::uint64_t informed, const Links& arcs) {
        std::uint64_t out = informed;
        for (const graph::Arc& a : arcs)
          if ((informed >> a.tail) & 1u) out |= std::uint64_t{1} << a.head;
        return out;
      },
      [full](std::uint64_t informed) { return informed == full; });
}

}  // namespace sysgo::search

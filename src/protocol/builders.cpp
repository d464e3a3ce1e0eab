#include "protocol/builders.hpp"

#include <algorithm>
#include <cstdint>

#include "graph/coloring.hpp"
#include "graph/matching.hpp"

namespace sysgo::protocol {

SystolicSchedule edge_coloring_schedule(const graph::Digraph& g, Mode mode) {
  const graph::EdgeColoring coloring = graph::greedy_edge_coloring(g);
  SystolicSchedule sched;
  sched.n = g.vertex_count();
  sched.mode = mode;
  const auto n = static_cast<std::size_t>(sched.n);
  const bool full = mode == Mode::kFullDuplex;
  const std::size_t rounds_per_color = full ? 1 : 2;
  sched.period.resize(static_cast<std::size_t>(coloring.color_count) *
                      rounds_per_color);

  // Edge {u, v} of color c activates (u, v) and (v, u): in round c
  // (full-duplex), or forward in round 2c and backward in round 2c + 1.
  // Bucket the arcs by tail, then deal them out to their rounds in tail
  // order: a round is a matching, so each round comes out canonical.
  std::vector<std::size_t> start(n + 1, 0);
  for (const auto& [u, v] : coloring.edges) {
    ++start[static_cast<std::size_t>(u) + 1];
    ++start[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) start[v + 1] += start[v];
  struct Activation {
    int head;
    std::uint32_t round;
  };
  std::vector<Activation> by_tail(start[n]);
  std::vector<std::size_t> round_size(sched.period.size(), 0);
  for (std::size_t i = 0; i < coloring.edges.size(); ++i) {
    const auto [u, v] = coloring.edges[i];
    const auto c = static_cast<std::uint32_t>(coloring.colors[i]);
    const std::uint32_t forward = full ? c : 2 * c;
    const std::uint32_t backward = full ? c : 2 * c + 1;
    by_tail[start[static_cast<std::size_t>(u)]++] = {v, forward};
    by_tail[start[static_cast<std::size_t>(v)]++] = {u, backward};
    ++round_size[forward];
    ++round_size[backward];
  }
  for (std::size_t r = 0; r < round_size.size(); ++r)
    sched.period[r].arcs.reserve(round_size[r]);
  // start[v] now ends v's bucket, which begins where v - 1's ended.
  for (std::size_t v = 0, i = 0; v < n; ++v)
    for (; i < start[v]; ++i)
      sched.period[by_tail[i].round].arcs.push_back(
          {static_cast<int>(v), by_tail[i].head});
  return sched;
}

namespace {

Round random_round(const graph::Digraph& g, Mode mode, util::Rng& rng) {
  Round round;
  if (mode == Mode::kFullDuplex) {
    auto edges = g.undirected_edges();
    std::shuffle(edges.begin(), edges.end(), rng.engine());
    std::vector<char> used(static_cast<std::size_t>(g.vertex_count()), 0);
    for (const auto& [u, v] : edges) {
      if (used[static_cast<std::size_t>(u)] || used[static_cast<std::size_t>(v)])
        continue;
      used[static_cast<std::size_t>(u)] = used[static_cast<std::size_t>(v)] = 1;
      round.arcs.push_back({u, v});
      round.arcs.push_back({v, u});
    }
  } else {
    std::vector<graph::Arc> pool(g.arcs().begin(), g.arcs().end());
    std::shuffle(pool.begin(), pool.end(), rng.engine());
    round.arcs = graph::greedy_matching(pool, g.vertex_count());
  }
  round.canonicalize();
  return round;
}

}  // namespace

SystolicSchedule random_systolic_schedule(const graph::Digraph& g, int s, Mode mode,
                                          util::Rng& rng) {
  SystolicSchedule sched;
  sched.n = g.vertex_count();
  sched.mode = mode;
  sched.period.reserve(static_cast<std::size_t>(s));
  for (int i = 0; i < s; ++i) sched.period.push_back(random_round(g, mode, rng));
  return sched;
}

Protocol random_protocol(const graph::Digraph& g, int t, Mode mode, util::Rng& rng) {
  Protocol p;
  p.n = g.vertex_count();
  p.mode = mode;
  p.rounds.reserve(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) p.rounds.push_back(random_round(g, mode, rng));
  return p;
}

}  // namespace sysgo::protocol

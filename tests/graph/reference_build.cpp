#include "reference_build.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "topology/kautz.hpp"

namespace sysgo::graph::reference {

Csr finalize(int n, std::vector<Arc> arcs) {
  Csr c;
  c.arcs = std::move(arcs);
  for (const Arc& a : c.arcs)
    if (a.tail < 0 || a.tail >= n || a.head < 0 || a.head >= n)
      throw std::out_of_range("Digraph::finalize: arc endpoint out of range");
  std::sort(c.arcs.begin(), c.arcs.end());
  c.arcs.erase(std::unique(c.arcs.begin(), c.arcs.end()), c.arcs.end());

  c.out_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  c.in_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Arc& a : c.arcs) {
    ++c.out_offsets[static_cast<std::size_t>(a.tail) + 1];
    ++c.in_offsets[static_cast<std::size_t>(a.head) + 1];
  }
  for (int v = 0; v < n; ++v) {
    c.out_offsets[static_cast<std::size_t>(v) + 1] += c.out_offsets[v];
    c.in_offsets[static_cast<std::size_t>(v) + 1] += c.in_offsets[v];
  }
  c.out_adj.resize(c.arcs.size());
  c.in_adj.resize(c.arcs.size());
  std::vector<std::size_t> out_fill(c.out_offsets.begin(), c.out_offsets.end() - 1);
  std::vector<std::size_t> in_fill(c.in_offsets.begin(), c.in_offsets.end() - 1);
  for (const Arc& a : c.arcs) {
    c.out_adj[out_fill[a.tail]++] = a.head;
    c.in_adj[in_fill[a.head]++] = a.tail;
  }
  for (int v = 0; v < n; ++v)
    std::sort(c.in_adj.begin() + static_cast<std::ptrdiff_t>(c.in_offsets[v]),
              c.in_adj.begin() + static_cast<std::ptrdiff_t>(c.in_offsets[v + 1]));
  return c;
}

std::vector<std::pair<int, int>> undirected_edges(std::span<const Arc> arcs) {
  std::vector<std::pair<int, int>> edges;
  for (const Arc& a : arcs) {
    if (a.tail == a.head) continue;
    edges.emplace_back(std::min(a.tail, a.head), std::max(a.tail, a.head));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

EdgeColoring greedy_edge_coloring(const Digraph& g) {
  EdgeColoring out;
  out.edges = undirected_edges(g.arcs());
  out.colors.assign(out.edges.size(), -1);

  const int n = g.vertex_count();
  std::vector<std::vector<char>> used(static_cast<std::size_t>(n));
  auto color_free = [&](int v, int c) {
    const auto& u = used[static_cast<std::size_t>(v)];
    return c >= static_cast<int>(u.size()) || !u[static_cast<std::size_t>(c)];
  };
  auto mark = [&](int v, int c) {
    auto& u = used[static_cast<std::size_t>(v)];
    if (c >= static_cast<int>(u.size())) u.resize(static_cast<std::size_t>(c) + 1, 0);
    u[static_cast<std::size_t>(c)] = 1;
  };

  for (std::size_t i = 0; i < out.edges.size(); ++i) {
    const auto [u, v] = out.edges[i];
    int c = 0;
    while (!(color_free(u, c) && color_free(v, c))) ++c;
    out.colors[i] = c;
    mark(u, c);
    mark(v, c);
    out.color_count = std::max(out.color_count, c + 1);
  }
  return out;
}

namespace {

std::int64_t pack(const std::vector<int>& w, int d) {
  std::int64_t key = 0;
  for (std::size_t i = w.size(); i-- > 0;) key = key * (d + 1) + w[i];
  return key;
}

bool is_half_duplex_matching(std::span<const Arc> arcs, int n) {
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  for (const Arc& a : arcs) {
    if (a.tail < 0 || a.tail >= n || a.head < 0 || a.head >= n) return false;
    if (a.tail == a.head) return false;
    if (used[a.tail] || used[a.head]) return false;
    used[a.tail] = used[a.head] = 1;
  }
  return true;
}

bool is_full_duplex_matching(std::span<const Arc> arcs, int n) {
  std::vector<int> partner(static_cast<std::size_t>(n), -1);
  std::vector<Arc> sorted(arcs.begin(), arcs.end());
  std::sort(sorted.begin(), sorted.end());
  for (const Arc& a : sorted) {
    if (a.tail < 0 || a.tail >= n || a.head < 0 || a.head >= n) return false;
    if (a.tail == a.head) return false;
    if (!std::binary_search(sorted.begin(), sorted.end(), reversed(a))) return false;
    if (partner[a.tail] != -1 && partner[a.tail] != a.head) return false;
    if (partner[a.head] != -1 && partner[a.head] != a.tail) return false;
    partner[a.tail] = a.head;
    partner[a.head] = a.tail;
  }
  return true;
}

[[noreturn]] void fail(int round, const std::string& what) {
  throw std::invalid_argument("CompiledSchedule: round " +
                              std::to_string(round) + " " + what);
}

}  // namespace

Digraph kautz_directed(int d, int D) {
  const auto words = topology::kautz_words(d, D);
  std::unordered_map<std::int64_t, int> index;
  for (std::size_t i = 0; i < words.size(); ++i)
    index.emplace(pack(words[i], d), static_cast<int>(i));

  Digraph g(static_cast<int>(words.size()));
  std::vector<int> next(static_cast<std::size_t>(D));
  for (std::size_t i = 0; i < words.size(); ++i) {
    const auto& w = words[i];
    for (int j = D - 1; j >= 1; --j)
      next[static_cast<std::size_t>(j)] = w[static_cast<std::size_t>(j) - 1];
    for (int a = 0; a <= d; ++a) {
      if (a == w[0]) continue;
      next[0] = a;
      g.add_arc(static_cast<int>(i), index.at(pack(next, d)));
    }
  }
  g.finalize();
  return g;
}

protocol::SystolicSchedule edge_coloring_schedule(const Digraph& g,
                                                  protocol::Mode mode) {
  using protocol::Mode;
  const EdgeColoring coloring = reference::greedy_edge_coloring(g);
  protocol::SystolicSchedule sched;
  sched.n = g.vertex_count();
  sched.mode = mode;
  const int rounds_per_color = (mode == Mode::kHalfDuplex) ? 2 : 1;
  sched.period.resize(static_cast<std::size_t>(coloring.color_count) *
                      static_cast<std::size_t>(rounds_per_color));
  for (std::size_t i = 0; i < coloring.edges.size(); ++i) {
    const auto [u, v] = coloring.edges[i];
    const int c = coloring.colors[i];
    if (mode == Mode::kFullDuplex) {
      auto& round = sched.period[static_cast<std::size_t>(c)];
      round.arcs.push_back({u, v});
      round.arcs.push_back({v, u});
    } else {
      sched.period[static_cast<std::size_t>(2 * c)].arcs.push_back({u, v});
      sched.period[static_cast<std::size_t>(2 * c + 1)].arcs.push_back({v, u});
    }
  }
  for (auto& r : sched.period) r.canonicalize();
  return sched;
}

Compiled compile(const protocol::SystolicSchedule& s, const Digraph* g) {
  using protocol::Mode;
  using protocol::RoundRole;
  const int n = s.n;
  const Mode mode = s.mode;
  const auto& rounds = s.period;
  if (n < 1) throw std::invalid_argument("CompiledSchedule: need n >= 1");
  if (rounds.empty()) throw std::invalid_argument("CompiledSchedule: empty period");

  Compiled cs;
  const std::size_t nr = rounds.size();
  cs.partner.assign(nr * static_cast<std::size_t>(n), -1);
  cs.role.assign(nr * static_cast<std::size_t>(n), RoundRole::kIdle);
  if (mode == Mode::kFullDuplex) cs.pair_begin.push_back(0);

  for (std::size_t r = 0; r < nr; ++r) {
    const int round_no = static_cast<int>(r) + 1;
    for (const Arc& a : rounds[r].arcs) {
      if (a.tail < 0 || a.tail >= n || a.head < 0 || a.head >= n)
        fail(round_no, "activates an endpoint outside [0, n)");
      if (g != nullptr && !g->has_arc(a.tail, a.head))
        fail(round_no, "activates arc (" + std::to_string(a.tail) + "," +
                           std::to_string(a.head) + ") absent from the network");
    }
    const bool matching = mode == Mode::kFullDuplex
                              ? is_full_duplex_matching(rounds[r].arcs, n)
                              : is_half_duplex_matching(rounds[r].arcs, n);
    if (!matching)
      fail(round_no, std::string("is not a valid ") +
                         (mode == Mode::kFullDuplex ? "full" : "half") +
                         "-duplex matching");
    protocol::Round canon = rounds[r];
    canon.canonicalize();

    std::int32_t* partners = cs.partner.data() + r * static_cast<std::size_t>(n);
    RoundRole* roles = cs.role.data() + r * static_cast<std::size_t>(n);
    for (const Arc& a : canon.arcs) {
      partners[a.tail] = a.head;
      partners[a.head] = a.tail;
      if (mode == Mode::kFullDuplex) {
        roles[a.tail] = roles[a.head] = RoundRole::kExchange;
        if (a.tail < a.head) cs.pairs.push_back(a);
      } else {
        roles[a.tail] = RoundRole::kSend;
        roles[a.head] = RoundRole::kReceive;
      }
    }
    cs.arcs.insert(cs.arcs.end(), canon.arcs.begin(), canon.arcs.end());
    cs.arc_begin.push_back(static_cast<std::int32_t>(cs.arcs.size()));
    if (mode == Mode::kFullDuplex)
      cs.pair_begin.push_back(static_cast<std::int32_t>(cs.pairs.size()));
  }
  return cs;
}

}  // namespace sysgo::graph::reference

#include "search/symmetry.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace sysgo::search {

std::vector<int> vertex_classes(const graph::Digraph& g) {
  const int n = g.vertex_count();
  std::vector<int> color(static_cast<std::size_t>(n), 0);

  // Initial colors: (out-degree, in-degree), densified in sorted order so
  // the classification is canonical.
  {
    std::map<std::pair<int, int>, int> ids;
    for (int v = 0; v < n; ++v)
      ids.emplace(std::pair{g.out_degree(v), g.in_degree(v)}, 0);
    int next = 0;
    for (auto& [key, id] : ids) id = next++;
    for (int v = 0; v < n; ++v)
      color[static_cast<std::size_t>(v)] =
          ids.at({g.out_degree(v), g.in_degree(v)});
  }

  // Refine: a vertex's signature is (color, sorted out-neighbor colors,
  // sorted in-neighbor colors).  Densify signatures in sorted order each
  // round; stop at a fixed point.
  for (;;) {
    using Signature = std::pair<int, std::pair<std::vector<int>, std::vector<int>>>;
    std::vector<Signature> sig(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      std::vector<int> out, in;
      for (int w : g.out_neighbors(v)) out.push_back(color[static_cast<std::size_t>(w)]);
      for (int w : g.in_neighbors(v)) in.push_back(color[static_cast<std::size_t>(w)]);
      std::sort(out.begin(), out.end());
      std::sort(in.begin(), in.end());
      sig[static_cast<std::size_t>(v)] = {color[static_cast<std::size_t>(v)],
                                          {std::move(out), std::move(in)}};
    }
    std::map<Signature, int> ids;
    for (const auto& s : sig) ids.emplace(s, 0);
    int next = 0;
    for (auto& [key, id] : ids) id = next++;
    bool changed = false;
    for (int v = 0; v < n; ++v) {
      const int c = ids.at(sig[static_cast<std::size_t>(v)]);
      changed = changed || c != color[static_cast<std::size_t>(v)];
      color[static_cast<std::size_t>(v)] = c;
    }
    if (!changed) return color;
  }
}

namespace {

struct AutoSearch {
  const graph::Digraph& g;
  const std::vector<int>& color;
  std::size_t max_order;
  int n;
  Perm assign;               // assign[v] = image of v for v < depth
  std::vector<bool> used;    // image already taken
  std::vector<Perm> found;
  bool aborted = false;

  void run(int depth) {
    if (aborted) return;
    if (depth == n) {
      if (found.size() >= max_order) {
        aborted = true;
        return;
      }
      found.push_back(assign);
      return;
    }
    const auto v = static_cast<std::size_t>(depth);
    for (int w = 0; w < n; ++w) {
      if (used[static_cast<std::size_t>(w)]) continue;
      if (color[v] != color[static_cast<std::size_t>(w)]) continue;
      bool ok = true;
      for (int j = 0; j < depth && ok; ++j) {
        const int pj = assign[static_cast<std::size_t>(j)];
        ok = g.has_arc(depth, j) == g.has_arc(w, pj) &&
             g.has_arc(j, depth) == g.has_arc(pj, w);
      }
      if (!ok) continue;
      assign[v] = w;
      used[static_cast<std::size_t>(w)] = true;
      run(depth + 1);
      used[static_cast<std::size_t>(w)] = false;
      if (aborted) return;
    }
  }
};

Perm identity_perm(int n) {
  Perm id(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) id[static_cast<std::size_t>(v)] = v;
  return id;
}

}  // namespace

AutomorphismGroup automorphisms(const graph::Digraph& g, std::size_t max_order) {
  const int n = g.vertex_count();
  AutomorphismGroup group;
  if (n == 0) {
    group.perms.push_back({});
    return group;
  }
  const auto color = vertex_classes(g);
  AutoSearch search{g,
                    color,
                    max_order,
                    n,
                    Perm(static_cast<std::size_t>(n), -1),
                    std::vector<bool>(static_cast<std::size_t>(n), false),
                    {},
                    false};
  search.run(0);
  if (search.aborted) {
    group.perms.push_back(identity_perm(n));
    group.complete = false;
    return group;
  }
  group.perms = std::move(search.found);
  // Put the identity first (enumeration emits images in increasing order,
  // so it is already the lexicographically smallest — assert by moving it).
  const Perm id = identity_perm(n);
  const auto it = std::find(group.perms.begin(), group.perms.end(), id);
  if (it == group.perms.end())
    throw std::logic_error("automorphisms: identity not found");
  std::iter_swap(group.perms.begin(), it);
  return group;
}

AutomorphismGroup vertex_stabilizer(const AutomorphismGroup& group, int v) {
  AutomorphismGroup stab;
  stab.complete = group.complete;
  for (const Perm& p : group.perms)
    if (p[static_cast<std::size_t>(v)] == v) stab.perms.push_back(p);
  return stab;
}

Canonicalizer::Canonicalizer(int n, AutomorphismGroup group)
    : n_(n), group_(std::move(group)) {
  if (n < 0 || n > kMaxVertices)
    throw std::invalid_argument("Canonicalizer: n <= 12 required");
  const std::size_t k = group_.perms.size();
  if (k == 0) throw std::invalid_argument("Canonicalizer: empty group");
  inv_.resize(k);
  lo_.resize(k);
  hi_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Perm& p = group_.perms[i];
    if (static_cast<int>(p.size()) != n)
      throw std::invalid_argument("Canonicalizer: permutation size mismatch");
    inv_[i].fill(0);
    for (int v = 0; v < n; ++v)
      inv_[i][static_cast<std::size_t>(p[static_cast<std::size_t>(v)])] =
          static_cast<std::uint8_t>(v);
    // Column tables over 6-bit halves: table[mask] = OR of image bits.
    for (unsigned m = 0; m < 64; ++m) {
      std::uint16_t lo = 0, hi = 0;
      for (int b = 0; b < 6; ++b) {
        if (!((m >> b) & 1u)) continue;
        if (b < n)
          lo = static_cast<std::uint16_t>(
              lo | (1u << p[static_cast<std::size_t>(b)]));
        if (b + 6 < n)
          hi = static_cast<std::uint16_t>(
              hi | (1u << p[static_cast<std::size_t>(b + 6)]));
      }
      lo_[i][m] = lo;
      hi_[i][m] = hi;
    }
  }
}

State Canonicalizer::canonical(const State& s) const {
  std::size_t ignored;
  return canonical(s, &ignored);
}

State Canonicalizer::canonical(const State& s, std::size_t* perm_index) const {
  State best = s;  // perms[0] is the identity
  *perm_index = 0;
  const std::size_t k = group_.perms.size();
  for (std::size_t i = 1; i < k; ++i) {
    // Build the permuted state row-by-row, comparing to the incumbent with
    // early exit: row v of p(s) is colperm(rows[inv_p(v)]).
    State cand;
    bool better = false;
    bool worse = false;
    for (int v = 0; v < n_ && !worse; ++v) {
      const auto sv = static_cast<std::size_t>(v);
      const std::uint16_t row = col_permute(i, s.rows[inv_[i][sv]]);
      cand.rows[sv] = row;
      if (!better) {
        if (row < best.rows[sv]) better = true;
        else if (row > best.rows[sv]) worse = true;
      }
    }
    if (better && !worse) {
      best = cand;
      *perm_index = i;
    }
  }
  return best;
}

std::uint16_t Canonicalizer::canonical_mask(std::uint16_t mask) const {
  std::size_t ignored;
  return canonical_mask(mask, &ignored);
}

std::uint16_t Canonicalizer::canonical_mask(std::uint16_t mask,
                                            std::size_t* perm_index) const {
  std::uint16_t best = mask;
  *perm_index = 0;
  const std::size_t k = group_.perms.size();
  for (std::size_t i = 1; i < k; ++i) {
    const std::uint16_t cand = col_permute(i, mask);
    if (cand < best) {
      best = cand;
      *perm_index = i;
    }
  }
  return best;
}

}  // namespace sysgo::search

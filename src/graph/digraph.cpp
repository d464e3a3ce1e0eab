#include "graph/digraph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace sysgo::graph {

Digraph::Digraph(int n, std::vector<Arc> arcs) : n_(n), arcs_(std::move(arcs)) {
  finalize();
}

void Digraph::add_arc(int tail, int head) {
  if (tail < 0 || tail >= n_ || head < 0 || head >= n_)
    throw std::out_of_range("Digraph::add_arc: vertex out of range");
  finalized_ = false;
  arcs_.push_back({tail, head});
}

void Digraph::add_edge(int u, int v) {
  add_arc(u, v);
  add_arc(v, u);
}

void Digraph::finalize() {
  for (const Arc& a : arcs_)
    if (a.tail < 0 || a.tail >= n_ || a.head < 0 || a.head >= n_)
      throw std::out_of_range("Digraph::finalize: arc endpoint out of range");
  const auto n = static_cast<std::size_t>(n_);

  // Counting sort by tail, then sort and dedup each (short) out-row.
  out_offsets_.assign(n + 1, 0);
  for (const Arc& a : arcs_) ++out_offsets_[static_cast<std::size_t>(a.tail) + 1];
  for (std::size_t v = 0; v < n; ++v) out_offsets_[v + 1] += out_offsets_[v];
  out_adj_.resize(arcs_.size());
  {
    std::vector<std::size_t> fill(out_offsets_.begin(), out_offsets_.end() - 1);
    for (const Arc& a : arcs_) out_adj_[fill[a.tail]++] = a.head;
  }
  std::size_t kept = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t begin = out_offsets_[v];
    const std::size_t end = out_offsets_[v + 1];
    std::sort(out_adj_.begin() + static_cast<std::ptrdiff_t>(begin),
              out_adj_.begin() + static_cast<std::ptrdiff_t>(end));
    out_offsets_[v] = kept;
    for (std::size_t i = begin; i < end; ++i)
      if (kept == out_offsets_[v] || out_adj_[kept - 1] != out_adj_[i])
        out_adj_[kept++] = out_adj_[i];
  }
  out_offsets_[n] = kept;
  out_adj_.resize(kept);

  // Arcs and in-rows from the out-rows: scanning tails in ascending order
  // leaves every in-row sorted.
  arcs_.resize(kept);
  in_offsets_.assign(n + 1, 0);
  for (int head : out_adj_) ++in_offsets_[static_cast<std::size_t>(head) + 1];
  for (std::size_t v = 0; v < n; ++v) in_offsets_[v + 1] += in_offsets_[v];
  in_adj_.resize(kept);
  std::vector<std::size_t> in_fill(in_offsets_.begin(), in_offsets_.end() - 1);
  for (int tail = 0; tail < n_; ++tail)
    for (std::size_t i = out_offsets_[tail]; i < out_offsets_[tail + 1]; ++i) {
      const int head = out_adj_[i];
      arcs_[i] = {tail, head};
      in_adj_[in_fill[head]++] = tail;
    }
  finalized_ = true;
}

std::span<const int> Digraph::out_neighbors(int v) const noexcept {
  assert(finalized_);
  return {out_adj_.data() + out_offsets_[v], out_offsets_[v + 1] - out_offsets_[v]};
}

std::span<const int> Digraph::in_neighbors(int v) const noexcept {
  assert(finalized_);
  return {in_adj_.data() + in_offsets_[v], in_offsets_[v + 1] - in_offsets_[v]};
}

int Digraph::out_degree(int v) const noexcept {
  return static_cast<int>(out_neighbors(v).size());
}

int Digraph::in_degree(int v) const noexcept {
  return static_cast<int>(in_neighbors(v).size());
}

int Digraph::max_out_degree() const noexcept {
  int m = 0;
  for (int v = 0; v < n_; ++v) m = std::max(m, out_degree(v));
  return m;
}

int Digraph::max_degree_undirected() const noexcept {
  int m = 0;
  for (int v = 0; v < n_; ++v) m = std::max(m, (in_degree(v) + out_degree(v)) / 2);
  return m;
}

bool Digraph::has_arc(int tail, int head) const noexcept {
  assert(finalized_);
  if (tail < 0 || tail >= n_) return false;
  const auto nbrs = out_neighbors(tail);
  return std::binary_search(nbrs.begin(), nbrs.end(), head);
}

bool Digraph::is_symmetric() const noexcept {
  assert(finalized_);
  for (const Arc& a : arcs_)
    if (!has_arc(a.head, a.tail)) return false;
  return true;
}

Digraph Digraph::reverse() const {
  std::vector<Arc> rev;
  rev.reserve(arcs_.size());
  for (const Arc& a : arcs_) rev.push_back(reversed(a));
  return Digraph(n_, std::move(rev));
}

Digraph Digraph::symmetric_closure() const {
  std::vector<Arc> all(arcs_.begin(), arcs_.end());
  for (const Arc& a : arcs_) all.push_back(reversed(a));
  return Digraph(n_, std::move(all));
}

std::vector<std::pair<int, int>> Digraph::undirected_edges() const {
  assert(finalized_);
  // Per u, merge the sorted out-row and in-row, keeping neighbours above u
  // once: the pairs come out sorted and deduplicated, self-loops dropped.
  std::vector<std::pair<int, int>> edges;
  edges.reserve(arcs_.size());
  for (int u = 0; u < n_; ++u) {
    const auto out = out_neighbors(u);
    const auto in = in_neighbors(u);
    auto o = std::upper_bound(out.begin(), out.end(), u);
    auto i = std::upper_bound(in.begin(), in.end(), u);
    while (o != out.end() || i != in.end()) {
      int v;
      if (i == in.end() || (o != out.end() && *o < *i)) {
        v = *o++;
      } else {
        if (o != out.end() && *o == *i) ++o;
        v = *i++;
      }
      edges.emplace_back(u, v);
    }
  }
  return edges;
}

}  // namespace sysgo::graph

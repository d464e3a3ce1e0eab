// Directed graph with CSR adjacency.
//
// Networks are modelled as digraphs (Section 3 of the paper): undirected
// graphs appear as symmetric digraphs (every arc has its opposite).
// finalize() is linear in the arcs: a counting sort by tail, then a sort
// of each short out-row; in-rows fill in tail order and come out sorted.
// Builders collect their arcs into one vector and construct once.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace sysgo::graph {

/// A communication link (tail, head): tail transmits to head.
struct Arc {
  int tail = 0;
  int head = 0;
  friend bool operator==(const Arc&, const Arc&) = default;
  friend auto operator<=>(const Arc&, const Arc&) = default;
};

[[nodiscard]] constexpr Arc reversed(Arc a) noexcept { return {a.head, a.tail}; }

/// Immutable-after-finalize digraph.  Build with add_arc(), then call
/// finalize() (or construct from an arc list) before queries.
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(int n) : n_(n) {}
  Digraph(int n, std::vector<Arc> arcs);

  void add_arc(int tail, int head);
  /// Adds (u, v) and (v, u).
  void add_edge(int u, int v);

  /// Sort adjacency, drop duplicate arcs, build in/out CSR indexes.
  /// O(m + n) plus a sort per out-row.
  void finalize();
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  [[nodiscard]] int vertex_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t arc_count() const noexcept { return arcs_.size(); }

  /// All arcs, sorted by (tail, head).  Requires finalize().
  [[nodiscard]] std::span<const Arc> arcs() const noexcept { return arcs_; }

  /// Out-neighbours / in-neighbours of v.  Requires finalize().
  [[nodiscard]] std::span<const int> out_neighbors(int v) const noexcept;
  [[nodiscard]] std::span<const int> in_neighbors(int v) const noexcept;

  [[nodiscard]] int out_degree(int v) const noexcept;
  [[nodiscard]] int in_degree(int v) const noexcept;
  [[nodiscard]] int max_out_degree() const noexcept;
  /// Max over vertices of (in_degree + out_degree) / 2 for symmetric
  /// digraphs = the undirected degree.
  [[nodiscard]] int max_degree_undirected() const noexcept;

  /// O(log deg) membership test.  Requires finalize().
  [[nodiscard]] bool has_arc(int tail, int head) const noexcept;

  /// True when every arc has its opposite (an undirected graph).
  [[nodiscard]] bool is_symmetric() const noexcept;

  /// Digraph with every arc reversed.
  [[nodiscard]] Digraph reverse() const;

  /// Symmetric closure: adds the opposite of every arc.
  [[nodiscard]] Digraph symmetric_closure() const;

  /// Undirected edge list {u, v} with u < v, one entry per unordered pair
  /// (self-loops dropped), sorted.  Meaningful for any digraph; used by
  /// colorings.  A merge of each vertex's out- and in-row: O(m).  Requires
  /// finalize().
  [[nodiscard]] std::vector<std::pair<int, int>> undirected_edges() const;

 private:
  int n_ = 0;
  bool finalized_ = false;
  std::vector<Arc> arcs_;
  std::vector<std::size_t> out_offsets_;
  std::vector<int> out_adj_;
  std::vector<std::size_t> in_offsets_;
  std::vector<int> in_adj_;
};

}  // namespace sysgo::graph

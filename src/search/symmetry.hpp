// Graph symmetry for state-space reduction.
//
// Two knowledge states that differ by an automorphism of the network reach
// the goal in the same number of rounds, so the solver only ever stores one
// canonical representative per orbit.  This file provides the three pieces:
// vertex classification by iterated color refinement (the pruning signal),
// automorphism-group enumeration by class-guided backtracking, and a
// Canonicalizer that maps a state to the lexicographic minimum of its orbit
// under the enumerated group.
//
// Canonicalization is sound for any SUBGROUP of Aut(G): orbits under a
// subgroup refine the true orbits, so distinct states are never merged,
// only less deduplication happens.  When the full group is larger than the
// enumeration cap we therefore fall back to the identity-only subgroup
// rather than an arbitrary (non-closed) truncation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "search/state.hpp"

namespace sysgo::search {

/// perm[v] = image of vertex v.
using Perm = std::vector<int>;

/// Stable vertex classification: color[v] == color[w] iff refinement cannot
/// distinguish v and w by degrees and iterated neighborhood colors.  Colors
/// are dense in [0, num_classes) and canonical for a given digraph.
[[nodiscard]] std::vector<int> vertex_classes(const graph::Digraph& g);

struct AutomorphismGroup {
  /// Group elements; perms[0] is always the identity.  When complete is
  /// false the true group exceeded the enumeration cap and only the
  /// identity is retained (see file comment on subgroup soundness).
  std::vector<Perm> perms;
  bool complete = true;

  [[nodiscard]] std::size_t order() const noexcept { return perms.size(); }
};

/// Enumerate Aut(g) by backtracking, pruned by vertex_classes and partial
/// adjacency consistency.  Aborts once more than max_order automorphisms
/// are found and returns the identity-only group with complete = false.
[[nodiscard]] AutomorphismGroup automorphisms(const graph::Digraph& g,
                                              std::size_t max_order = 4096);

/// The subgroup fixing vertex v (used by broadcast, whose source breaks
/// the symmetry).
[[nodiscard]] AutomorphismGroup vertex_stabilizer(const AutomorphismGroup& group,
                                                  int v);

/// Maps states to the lexicographic minimum of their orbit.  Per
/// permutation the row relocation (inverse permutation) and the column
/// bit-permutation (two 6-bit lookup tables) are precomputed, so one orbit
/// element costs n table lookups; candidates are compared to the running
/// minimum row-by-row with early exit.
class Canonicalizer {
 public:
  /// n <= kMaxVertices; every perm in group must have size n.
  Canonicalizer(int n, AutomorphismGroup group);

  [[nodiscard]] const AutomorphismGroup& group() const noexcept { return group_; }
  [[nodiscard]] std::size_t group_order() const noexcept {
    return group_.order();
  }
  [[nodiscard]] const Perm& perm(std::size_t i) const { return group_.perms[i]; }

  /// Canonical representative of s's orbit.
  [[nodiscard]] State canonical(const State& s) const;

  /// As above; *perm_index receives the index of a permutation p with
  /// p(s) == canonical(s) (needed to rebuild witness protocols).
  [[nodiscard]] State canonical(const State& s, std::size_t* perm_index) const;

  /// Orbit minimum of an n-bit vertex set (broadcast informed sets).
  [[nodiscard]] std::uint16_t canonical_mask(std::uint16_t mask) const;

  /// As above, with the permutation index reported like canonical(s, ...).
  [[nodiscard]] std::uint16_t canonical_mask(std::uint16_t mask,
                                             std::size_t* perm_index) const;

 private:
  /// colperm of permutation i applied to a row mask.
  [[nodiscard]] std::uint16_t col_permute(std::size_t i,
                                          std::uint16_t mask) const noexcept {
    return static_cast<std::uint16_t>(lo_[i][mask & 63u] |
                                      hi_[i][(mask >> 6) & 63u]);
  }

  int n_;
  AutomorphismGroup group_;
  std::vector<std::array<std::uint8_t, kMaxVertices>> inv_;  // inverse perms
  std::vector<std::array<std::uint16_t, 64>> lo_;  // bits 0..5 -> image mask
  std::vector<std::array<std::uint16_t, 64>> hi_;  // bits 6..11 -> image mask
};

}  // namespace sysgo::search

// Local delay matrices Mx(λ), Nx(λ), Ox(λ) of Section 4 (Figs. 1–3).
//
// The s-systolic protocol at one vertex x is characterized by alternating
// blocks of l_j left activations (incoming arcs) and r_j right activations
// (outgoing arcs), j = 0..k−1, with Σ(l_j + r_j) = s.  Over h >= k blocks:
//
//   Mx(λ): block B_{i,j} = λ^{d_{i,j}} Λ_{l_i} Λ_{r_j}ᵀ for i <= j < i+k,
//          where Λ_m = (1, λ, …, λ^{m−1})ᵀ and d_{i,j} is the delay from the
//          last activation of left block i to the first of right block j;
//   Nx(λ): rank-h restriction with entries λ^{d_{i,j}} p_{r_j}(λ);
//   Ox(λ): transpose-side restriction with entries λ^{d_{j,i}} p_{l_j}(λ);
//   e:     the common positive semi-eigenvector of Lemma 4.2,
//          e_j = λ^{Σ_{c<j}(r_c − l_{c+1})}.
//
// These feed Lemma 4.3: ‖Mx(λ)‖ <= λ·√(p_R(λ))·√(p_L(λ)) with L = Σl_j,
// R = Σr_j per period.
//
// Test oracle; no library code calls it.  Its exact ‖Mx(λ)‖ checks the
// production half-duplex bound (core::vertex_norm_bound).
#pragma once

#include <vector>

#include "support/matrix.hpp"

namespace sysgo::core {

/// One period of a local protocol: k alternating left/right blocks.
struct LocalPattern {
  std::vector<int> lefts;   // l_0 ... l_{k-1}, all >= 1
  std::vector<int> rights;  // r_0 ... r_{k-1}, all >= 1

  [[nodiscard]] int k() const noexcept { return static_cast<int>(lefts.size()); }
  [[nodiscard]] int left_total() const;    // L = Σ l_j
  [[nodiscard]] int right_total() const;   // R = Σ r_j
  [[nodiscard]] int period() const;        // s = L + R

  /// Block sizes extended periodically: l_j for any j >= 0.
  [[nodiscard]] int left(int j) const;
  [[nodiscard]] int right(int j) const;

  /// d_{i,j} = 1 + Σ_{c=i}^{j-1} (r_c + l_{c+1}), the rounds between the
  /// last activation of left block i and the first of right block j (j >= i).
  [[nodiscard]] int delay(int i, int j) const;

  /// Validation: k >= 1, all block lengths >= 1.
  [[nodiscard]] bool valid() const noexcept;
};

/// Mx(λ) over h blocks (h >= k): (Σ_{j<h} l_j) x (Σ_{j<h} r_j).
[[nodiscard]] linalg::Matrix mx_matrix(const LocalPattern& pat, int h, double lambda);

/// Nx(λ) over h blocks: h x h (Fig. 3 left).
[[nodiscard]] linalg::Matrix nx_matrix(const LocalPattern& pat, int h, double lambda);

/// Ox(λ) over h blocks: h x h (Fig. 3 right).
[[nodiscard]] linalg::Matrix ox_matrix(const LocalPattern& pat, int h, double lambda);

/// The semi-eigenvector e of Lemma 4.2 (h components, strictly positive).
[[nodiscard]] std::vector<double> lemma42_semi_eigenvector(const LocalPattern& pat,
                                                           int h, double lambda);

/// Exact ‖Mx(λ)‖ over h blocks by power iteration; monotone nondecreasing
/// in h and always <= the Lemma 4.3 bound that the production audit
/// evaluates (core::vertex_norm_bound; property-tested).
[[nodiscard]] double local_norm_exact(const LocalPattern& pat, int h, double lambda);

}  // namespace sysgo::core

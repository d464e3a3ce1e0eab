// Full-duplex local matrix machinery (Section 6, Fig. 7).
//
// In the full-duplex mode every activation at a vertex is simultaneously a
// left and a right activation, so Mx(λ) (rows/columns ordered by round) is
// the banded matrix with entries λ, λ², …, λ^{s−1} on the first s−1
// superdiagonals.  Lemma 6.1: ‖M(λ)‖ <= λ + λ² + … + λ^{s−1}.
//
// Test oracle; no library code calls it.  Its exact ‖Mx(λ)‖ checks the
// production bound core::norm_bound_function(λ, s, Duplex::kFull).
#pragma once

#include "support/matrix.hpp"

namespace sysgo::core {

/// The t x t full-duplex local matrix of Fig. 7: entry (i, i+δ) = λ^δ for
/// 1 <= δ <= s−1 (a vertex active at every round of the period).
[[nodiscard]] linalg::Matrix full_duplex_local_matrix(int t, int s, double lambda);

/// Exact ‖Mx(λ)‖ of the t-round matrix by power iteration (always below
/// the Lemma 6.1 bound λ + λ² + … + λ^{s−1}, which production evaluates as
/// core::norm_bound_function(λ, s, Duplex::kFull); approaches it as t
/// grows).
[[nodiscard]] double full_duplex_norm_exact(int t, int s, double lambda);

}  // namespace sysgo::core

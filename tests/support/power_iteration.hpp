// Euclidean operator norm ‖M‖₂ and spectral radius via power iteration.
//
// The paper's machinery needs ‖M(λ)‖₂ = sqrt(ρ(MᵀM)) for non-negative
// matrices; for those, power iteration on MᵀM started from a positive vector
// converges to the Perron value.
//
// Test oracle support; no library code calls it.  Only the oracles in
// this directory use it.
#pragma once

#include <cstddef>

#include "support/matrix.hpp"
#include "support/sparse.hpp"

namespace sysgo::linalg {

struct PowerIterationOptions {
  std::size_t max_iterations = 20'000;
  double tolerance = 1e-12;  // relative change of the Rayleigh estimate
  bool parallel = false;     // multithread sparse mat-vec products
};

struct PowerIterationResult {
  double value = 0.0;        // converged estimate
  std::size_t iterations = 0;
  bool converged = false;
};

/// ‖M‖₂ of a dense matrix (any sign pattern is accepted; convergence is
/// guaranteed for non-negative matrices, which is all this library uses).
[[nodiscard]] PowerIterationResult operator_norm(
    const Matrix& m, const PowerIterationOptions& opts = {});

/// ‖M‖₂ of a sparse matrix.
[[nodiscard]] PowerIterationResult operator_norm(
    const SparseMatrix& m, const PowerIterationOptions& opts = {});

/// Spectral radius ρ(M) of a non-negative square dense matrix
/// (power iteration from the all-ones vector; Perron–Frobenius).
[[nodiscard]] PowerIterationResult spectral_radius_nonnegative(
    const Matrix& m, const PowerIterationOptions& opts = {});

}  // namespace sysgo::linalg

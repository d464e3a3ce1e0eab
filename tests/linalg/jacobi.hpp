// Cyclic Jacobi eigenvalue iteration for symmetric matrices — a test
// oracle, compiled into the linalg test binary only.
//
// An exact (to tolerance) dense eigensolver used to cross-validate the
// power-iteration norms: ‖M‖₂² is the largest eigenvalue of the symmetric
// MᵀM, which Jacobi computes with all-eigenvalue certainty (no danger of
// converging to a subdominant eigenpair).  No library code calls it.
#pragma once

#include <vector>

#include "support/matrix.hpp"

namespace sysgo::linalg {

struct JacobiOptions {
  int max_sweeps = 64;
  double tolerance = 1e-13;  // off-diagonal Frobenius threshold
};

struct JacobiResult {
  std::vector<double> eigenvalues;  // descending order
  int sweeps = 0;
  bool converged = false;
};

/// Eigenvalues of a symmetric matrix.  Throws if m is not square/symmetric.
[[nodiscard]] JacobiResult jacobi_eigenvalues(const Matrix& m,
                                              const JacobiOptions& opts = {});

/// ‖M‖₂ via Jacobi on MᵀM — the slow, certain reference implementation.
[[nodiscard]] double operator_norm_exact(const Matrix& m);

}  // namespace sysgo::linalg

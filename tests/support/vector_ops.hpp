// Basic dense-vector kernels shared by the norm and eigen routines.
//
// Test oracle support; no library code calls it.  Only the oracles in
// this directory use it.
#pragma once

#include <span>
#include <vector>

namespace sysgo::linalg {

/// Euclidean (l2) norm.
[[nodiscard]] double norm2(std::span<const double> x) noexcept;

/// Maximum absolute component (l-infinity norm).
[[nodiscard]] double norm_inf(std::span<const double> x) noexcept;

/// Sum of absolute components (l1 norm).
[[nodiscard]] double norm1(std::span<const double> x) noexcept;

/// Dot product; x and y must have equal length.
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y) noexcept;

/// x <- a * x.
void scale(std::span<double> x, double a) noexcept;

/// Normalize x to unit l2 norm in place; returns the previous norm.
/// If x is (numerically) zero it is left unchanged and 0 is returned.
double normalize(std::span<double> x) noexcept;

/// The weighted-max norm |z|_x = max_i |z_i / x_i| used in Lemma 2.1
/// (x must be strictly positive).
[[nodiscard]] double weighted_max_norm(std::span<const double> z,
                                       std::span<const double> x);

}  // namespace sysgo::linalg

// Dense row-major matrix.
//
// Sized for the paper's local matrices Mx(λ), Nx(λ), Ox(λ) (a few hundred
// rows at most), so the implementation favours clarity over blocking.
//
// Test oracle support; no library code calls it.  Only the oracles in
// this directory use it.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace sysgo::linalg {

class Matrix {
 public:
  Matrix() = default;
  /// rows x cols matrix of zeros.
  Matrix(std::size_t rows, std::size_t cols);
  /// Build from row-major data; data.size() must equal rows*cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  /// y = (*this) * x.
  [[nodiscard]] std::vector<double> mul(std::span<const double> x) const;
  /// y = (*this)^T * x.
  [[nodiscard]] std::vector<double> mul_transpose(std::span<const double> x) const;

  [[nodiscard]] Matrix multiply(const Matrix& other) const;
  [[nodiscard]] Matrix transpose() const;
  [[nodiscard]] Matrix add(const Matrix& other) const;
  [[nodiscard]] Matrix scaled(double a) const;

  /// True when max |a_ij - b_ij| <= tol.
  [[nodiscard]] bool approx_equal(const Matrix& other, double tol = 1e-12) const;

  /// Entry-wise dominance: a_ij <= b_ij + tol for all i,j
  /// (matrix-norm property 4 applies to such pairs).
  [[nodiscard]] bool dominated_by(const Matrix& other, double tol = 1e-12) const;

  [[nodiscard]] bool is_symmetric(double tol = 1e-12) const;

  [[nodiscard]] double max_abs() const noexcept;
  [[nodiscard]] double frobenius_norm() const noexcept;

  /// Max row sum of absolute values (operator inf-norm).
  [[nodiscard]] double inf_norm() const noexcept;
  /// Max column sum of absolute values (operator 1-norm).
  [[nodiscard]] double one_norm() const noexcept;

  /// Human-readable rendering with aligned fixed-precision entries.
  [[nodiscard]] std::string str(int digits = 3) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace sysgo::linalg

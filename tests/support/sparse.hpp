// Compressed-sparse-row matrix.
//
// Delay matrices M(λ) of whole protocols have one row/column per arc
// activation and O(s) entries per row; CSR keeps their exact norms
// (delay_matrix.hpp) cheap at thousands of activations.
//
// Test oracle support; no library code calls it.  Only the oracles in
// this directory use it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/matrix.hpp"

namespace sysgo::linalg {

/// One (row, col, value) entry used while assembling a sparse matrix.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Assemble from triplets; duplicate (row, col) entries are summed.
  SparseMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> entries);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

  /// y = A x (optionally multithreaded over rows).
  [[nodiscard]] std::vector<double> mul(std::span<const double> x,
                                        bool parallel = false) const;
  /// y = A^T x.
  [[nodiscard]] std::vector<double> mul_transpose(std::span<const double> x) const;

  /// Entry lookup (O(log nnz_row)); zero when absent.
  [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept;

  [[nodiscard]] Matrix to_dense() const;

  /// Max row sum / max column sum of absolute values.
  [[nodiscard]] double inf_norm() const noexcept;
  [[nodiscard]] double one_norm() const noexcept;

  [[nodiscard]] std::span<const std::size_t> row_offsets() const noexcept {
    return row_offsets_;
  }
  [[nodiscard]] std::span<const std::size_t> col_indices() const noexcept {
    return col_indices_;
  }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;  // size nnz, sorted within each row
  std::vector<double> values_;            // size nnz
};

}  // namespace sysgo::linalg

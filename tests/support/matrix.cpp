#include "support/matrix.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace sysgo::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows_ * cols_)
    throw std::invalid_argument("Matrix: data size does not match rows*cols");
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::vector<double> Matrix::mul(std::span<const double> x) const {
  assert(x.size() == cols_);
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) s += row[c] * x[c];
    y[r] = s;
  }
  return y;
}

std::vector<double> Matrix::mul_transpose(std::span<const double> x) const {
  assert(x.size() == rows_);
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
  }
  return y;
}

Matrix Matrix::multiply(const Matrix& other) const {
  if (cols_ != other.rows_)
    throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double v = (*this)(r, k);
      if (v == 0.0) continue;
      const double* orow = other.data_.data() + k * other.cols_;
      double* drow = out.data_.data() + r * out.cols_;
      for (std::size_t c = 0; c < other.cols_; ++c) drow[c] += v * orow[c];
    }
  }
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

Matrix Matrix::add(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::add: dimension mismatch");
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] + other.data_[i];
  return out;
}

Matrix Matrix::scaled(double a) const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = a * data_[i];
  return out;
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i)
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  return true;
}

bool Matrix::dominated_by(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i)
    if (data_[i] > other.data_[i] + tol) return false;
  return true;
}

bool Matrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r + 1; c < cols_; ++c)
      if (std::fabs((*this)(r, c) - (*this)(c, r)) > tol) return false;
  return true;
}

double Matrix::max_abs() const noexcept {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Matrix::frobenius_norm() const noexcept {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::inf_norm() const noexcept {
  double m = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += std::fabs((*this)(r, c));
    m = std::max(m, s);
  }
  return m;
}

double Matrix::one_norm() const noexcept {
  double m = 0.0;
  for (std::size_t c = 0; c < cols_; ++c) {
    double s = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) s += std::fabs((*this)(r, c));
    m = std::max(m, s);
  }
  return m;
}

std::string Matrix::str(int digits) const {
  std::ostringstream out;
  char buf[64];
  for (std::size_t r = 0; r < rows_; ++r) {
    out << (r == 0 ? "[ " : "  ");
    for (std::size_t c = 0; c < cols_; ++c) {
      std::snprintf(buf, sizeof buf, "%*.*f", digits + 4, digits, (*this)(r, c));
      out << buf << (c + 1 < cols_ ? " " : "");
    }
    out << (r + 1 < rows_ ? "\n" : " ]\n");
  }
  return out.str();
}

}  // namespace sysgo::linalg

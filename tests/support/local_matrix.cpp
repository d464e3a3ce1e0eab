#include "support/local_matrix.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "linalg/polynomial.hpp"
#include "support/power_iteration.hpp"

namespace sysgo::core {

int LocalPattern::left_total() const {
  return std::accumulate(lefts.begin(), lefts.end(), 0);
}

int LocalPattern::right_total() const {
  return std::accumulate(rights.begin(), rights.end(), 0);
}

int LocalPattern::period() const { return left_total() + right_total(); }

int LocalPattern::left(int j) const {
  return lefts[static_cast<std::size_t>(j % k())];
}

int LocalPattern::right(int j) const {
  return rights[static_cast<std::size_t>(j % k())];
}

int LocalPattern::delay(int i, int j) const {
  if (j < i) throw std::invalid_argument("LocalPattern::delay: need j >= i");
  int d = 1;
  for (int c = i; c < j; ++c) d += right(c) + left(c + 1);
  return d;
}

bool LocalPattern::valid() const noexcept {
  if (lefts.empty() || lefts.size() != rights.size()) return false;
  for (int l : lefts)
    if (l < 1) return false;
  for (int r : rights)
    if (r < 1) return false;
  return true;
}

namespace {

void require(const LocalPattern& pat, int h, double lambda) {
  if (!pat.valid()) throw std::invalid_argument("LocalPattern: invalid blocks");
  if (h < pat.k()) throw std::invalid_argument("local matrix: need h >= k");
  if (!(lambda > 0.0 && lambda < 1.0))
    throw std::invalid_argument("local matrix: need 0 < lambda < 1");
}

}  // namespace

linalg::Matrix mx_matrix(const LocalPattern& pat, int h, double lambda) {
  require(pat, h, lambda);
  const int k = pat.k();
  std::vector<int> row_off(static_cast<std::size_t>(h) + 1, 0);
  std::vector<int> col_off(static_cast<std::size_t>(h) + 1, 0);
  for (int j = 0; j < h; ++j) {
    row_off[static_cast<std::size_t>(j) + 1] =
        row_off[static_cast<std::size_t>(j)] + pat.left(j);
    col_off[static_cast<std::size_t>(j) + 1] =
        col_off[static_cast<std::size_t>(j)] + pat.right(j);
  }
  linalg::Matrix m(static_cast<std::size_t>(row_off[static_cast<std::size_t>(h)]),
                   static_cast<std::size_t>(col_off[static_cast<std::size_t>(h)]));
  for (int i = 0; i < h; ++i) {
    for (int j = i; j < std::min(h, i + k); ++j) {
      const double base = std::pow(lambda, pat.delay(i, j));
      // Rows of block i are in reverse round order (offset a adds a rounds
      // before the block's last activation); columns of block j are in
      // round order (offset b adds b rounds after the block's first).
      for (int a = 0; a < pat.left(i); ++a)
        for (int b = 0; b < pat.right(j); ++b)
          m(static_cast<std::size_t>(row_off[static_cast<std::size_t>(i)] + a),
            static_cast<std::size_t>(col_off[static_cast<std::size_t>(j)] + b)) =
              base * std::pow(lambda, a + b);
    }
  }
  return m;
}

linalg::Matrix nx_matrix(const LocalPattern& pat, int h, double lambda) {
  require(pat, h, lambda);
  const int k = pat.k();
  linalg::Matrix m(static_cast<std::size_t>(h), static_cast<std::size_t>(h));
  for (int i = 0; i < h; ++i)
    for (int j = i; j < std::min(h, i + k); ++j)
      m(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          std::pow(lambda, pat.delay(i, j)) *
          linalg::delay_polynomial(pat.right(j), lambda);
  return m;
}

linalg::Matrix ox_matrix(const LocalPattern& pat, int h, double lambda) {
  require(pat, h, lambda);
  const int k = pat.k();
  linalg::Matrix m(static_cast<std::size_t>(h), static_cast<std::size_t>(h));
  for (int i = 0; i < h; ++i)
    for (int j = std::max(0, i - k + 1); j <= i; ++j)
      m(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          std::pow(lambda, pat.delay(j, i)) *
          linalg::delay_polynomial(pat.left(j), lambda);
  return m;
}

std::vector<double> lemma42_semi_eigenvector(const LocalPattern& pat, int h,
                                             double lambda) {
  require(pat, h, lambda);
  std::vector<double> e(static_cast<std::size_t>(h));
  int exponent = 0;
  for (int j = 0; j < h; ++j) {
    e[static_cast<std::size_t>(j)] = std::pow(lambda, exponent);
    exponent += pat.right(j) - pat.left(j + 1);
  }
  return e;
}

double local_norm_exact(const LocalPattern& pat, int h, double lambda) {
  const auto m = mx_matrix(pat, h, lambda);
  return linalg::operator_norm(m).value;
}

}  // namespace sysgo::core

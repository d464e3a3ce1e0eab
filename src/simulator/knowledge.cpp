#include "simulator/knowledge.hpp"

#include <algorithm>
#include <atomic>

#include "simulator/kernels.hpp"

namespace sysgo::simulator {

namespace {

/// Words per row rounded up to a whole cache line (8 x 64-bit words), so
/// row starts stay 64-byte aligned and the kernels never take a tail path
/// on this storage.  Padding words hold zeros forever: learn() only sets
/// bits below n, and OR-merges of zeros are zeros.
constexpr std::size_t aligned_stride(std::size_t words) {
  return (words + 7) / 8 * 8;
}

}  // namespace

KnowledgeMatrix::KnowledgeMatrix(int n)
    : n_(n),
      words_((static_cast<std::size_t>(n) + 63) / 64),
      stride_(aligned_stride(words_)),
      bits_(static_cast<std::size_t>(n) * stride_, 0),
      counts_(static_cast<std::size_t>(n), 0) {
  for (int v = 0; v < n; ++v) learn(v, v);  // each processor starts with its item
}

void KnowledgeMatrix::reset() noexcept {
  std::fill(bits_.begin(), bits_.end(), 0);
  std::fill(counts_.begin(), counts_.end(), 0);
  full_rows_ = 0;
  for (int v = 0; v < n_; ++v) learn(v, v);
}

void KnowledgeMatrix::bump(int v, int added) noexcept {
  if (added == 0) return;
  int& c = counts_[static_cast<std::size_t>(v)];
  c += added;
  if (c == n_)
    std::atomic_ref<int>(full_rows_).fetch_add(1, std::memory_order_relaxed);
}

bool KnowledgeMatrix::knows(int v, int i) const noexcept {
  return (row_ptr(v)[static_cast<std::size_t>(i) / 64] >>
          (static_cast<std::size_t>(i) % 64)) & 1u;
}

void KnowledgeMatrix::learn(int v, int i) noexcept {
  std::uint64_t& word = row_ptr(v)[static_cast<std::size_t>(i) / 64];
  const std::uint64_t bit = std::uint64_t{1} << (static_cast<std::size_t>(i) % 64);
  if ((word & bit) == 0) {
    word |= bit;
    bump(v, 1);
  }
}

void KnowledgeMatrix::merge_into(int dst, int src) noexcept {
  bump(dst, kernels().merge_delta(row_ptr(dst), row_ptr(src), stride_));
}

void KnowledgeMatrix::merge_both(int a, int b) noexcept {
  int deltas[2];
  kernels().merge_both_delta(row_ptr(a), row_ptr(b), stride_, deltas);
  bump(a, deltas[0]);
  bump(b, deltas[1]);
}

void KnowledgeMatrix::merge_arcs(std::span<const graph::Arc> arcs) noexcept {
  // One kernel fetch and one base/stride resolution for the whole span —
  // the per-arc work is two pointer adds and the kernel call.
  const RowKernels& k = kernels();
  std::uint64_t* const base = bits_.data();
  const std::size_t stride = stride_;
  for (const graph::Arc& a : arcs) {
    // A full head row can gain nothing; its tail row is never written
    // within a matching round, so the count read is stable.
    if (counts_[static_cast<std::size_t>(a.head)] == n_) continue;
    const int added =
        k.merge_delta(base + static_cast<std::size_t>(a.head) * stride,
                      base + static_cast<std::size_t>(a.tail) * stride, stride);
    bump(a.head, added);
  }
}

void KnowledgeMatrix::merge_pairs(std::span<const graph::Arc> pairs) noexcept {
  const RowKernels& k = kernels();
  std::uint64_t* const base = bits_.data();
  const std::size_t stride = stride_;
  for (const graph::Arc& p : pairs) {
    std::uint64_t* const ra = base + static_cast<std::size_t>(p.tail) * stride;
    std::uint64_t* const rb = base + static_cast<std::size_t>(p.head) * stride;
    const bool a_full = counts_[static_cast<std::size_t>(p.tail)] == n_;
    const bool b_full = counts_[static_cast<std::size_t>(p.head)] == n_;
    if (a_full && b_full) continue;
    if (a_full) {
      bump(p.head, k.merge_delta(rb, ra, stride));
    } else if (b_full) {
      bump(p.tail, k.merge_delta(ra, rb, stride));
    } else {
      int deltas[2];
      k.merge_both_delta(ra, rb, stride, deltas);
      bump(p.tail, deltas[0]);
      bump(p.head, deltas[1]);
    }
  }
}

}  // namespace sysgo::simulator

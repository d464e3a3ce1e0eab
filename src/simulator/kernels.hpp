// Runtime-dispatched SIMD kernels for the slice-major gossip engine.
//
// Every gossip time and synthesis objective bottoms out in the same inner
// loop: OR one vertex's slice of knowledge words into another's.  The
// kernel table holds one entry, slice_step8 — one whole round of the engine
// on 64-byte column slices (simulator/batch.hpp) — in three interchangeable
// implementations:
//
//   scalar   portable slice_step<8> (always compiled)
//   avx2     two 256-bit ORs per slice, full test via vptest of the xor
//   avx512   one 512-bit OR per slice, full test via a compare mask
//            (AVX-512F only)
//
// Selection happens exactly once, at first use: the env override
// SYSGO_FORCE_KERNEL=scalar|avx2|avx512 wins if set (unsupported forces
// throw, so CI can gate on `sysgo kernels --have`), otherwise the widest
// kernel the CPU reports via CPUID is taken.  All kernels are exact — the
// same words and the same marks for any input — so every consumer is
// byte-identical across kernels; tests/simulator/test_slice_engine.cpp holds
// the differential suite.
#pragma once

#include <cstdint>
#include <cstddef>

#include "graph/digraph.hpp"

namespace sysgo::simulator {

enum class KernelKind : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kKernelKindCount = 3;

/// One kernel's operation table.
struct RowKernels {
  KernelKind kind = KernelKind::kScalar;
  /// One round of the slice-major gossip engine on 8-word slices; same
  /// contract as slice_step<8> below, plus `rows` 64-byte aligned.
  int (*slice_step8)(std::uint64_t* rows, const graph::Arc* links,
                     std::size_t count, bool pairs, const std::uint64_t* mask,
                     std::uint8_t* full);
};

/// One round of the slice-major gossip engine on W-word column slices,
/// portable form (the scalar kernel's slice_step8, and the engine's step for
/// W < 8).  `rows` holds one W-word slice per vertex (vertex v at
/// rows + W·v); `links` is the round's merge work list — half-duplex arcs
/// (head |= tail), or with `pairs` full-duplex tail < head pairs (both
/// become their union).  A merge into a row marked in `full` is skipped; a
/// row whose slice becomes equal to `mask` is marked.  Returns the number
/// of rows newly marked.  Within a round the links form a matching, so the
/// in-place merges equal snapshot semantics.
template <std::size_t W>
int slice_step(std::uint64_t* rows, const graph::Arc* links, std::size_t count,
               bool pairs, const std::uint64_t* mask,
               std::uint8_t* full) noexcept {
  int marked = 0;
  if (pairs) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto a = static_cast<std::size_t>(links[i].tail);
      const auto b = static_cast<std::size_t>(links[i].head);
      if ((full[a] & full[b]) != 0) continue;
      std::uint64_t* const ra = rows + a * W;
      std::uint64_t* const rb = rows + b * W;
      std::uint64_t diff = 0;
      for (std::size_t w = 0; w < W; ++w) {
        const std::uint64_t u = ra[w] | rb[w];
        ra[w] = u;
        rb[w] = u;
        diff |= u ^ mask[w];
      }
      if (diff == 0) {
        marked += 2 - full[a] - full[b];
        full[a] = 1;
        full[b] = 1;
      }
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      const auto h = static_cast<std::size_t>(links[i].head);
      if (full[h] != 0) continue;
      std::uint64_t* const rh = rows + h * W;
      const std::uint64_t* const rt =
          rows + static_cast<std::size_t>(links[i].tail) * W;
      std::uint64_t diff = 0;
      for (std::size_t w = 0; w < W; ++w) {
        const std::uint64_t u = rh[w] | rt[w];
        rh[w] = u;
        diff |= u ^ mask[w];
      }
      if (diff == 0) {
        full[h] = 1;
        ++marked;
      }
    }
  }
  return marked;
}

/// Kernel `k` was compiled into this binary (x86 builds compile all three;
/// other architectures only the scalar one).
[[nodiscard]] bool kernel_compiled(KernelKind k) noexcept;

/// kernel_compiled(k) and the running CPU supports its ISA.
[[nodiscard]] bool kernel_supported(KernelKind k) noexcept;

/// Operation table of a specific kernel.  Throws std::runtime_error when
/// the kernel is not supported on this host.
[[nodiscard]] const RowKernels& kernel_table(KernelKind k);

/// The active kernel's operation table.  First call resolves the dispatch:
/// SYSGO_FORCE_KERNEL if set (throws std::runtime_error when it names an
/// unknown or unsupported kernel), else the widest supported ISA.
[[nodiscard]] const RowKernels& kernels();

[[nodiscard]] KernelKind active_kernel();
[[nodiscard]] const char* kernel_name(KernelKind k) noexcept;

/// Swap the active kernel, returning the previous one.  Process-global and
/// not synchronized — a test/bench hook, not an API for concurrent phases.
/// Throws std::runtime_error when `k` is unsupported on this host.
KernelKind force_kernel(KernelKind k);

/// RAII form of force_kernel for differential tests and bench arms.
class ScopedKernel {
 public:
  explicit ScopedKernel(KernelKind k) : prev_(force_kernel(k)) {}
  ~ScopedKernel() { force_kernel(prev_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  KernelKind prev_;
};

}  // namespace sysgo::simulator

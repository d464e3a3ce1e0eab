#include "simulator/kernels.hpp"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define SYSGO_KERNELS_X86 1
#include <immintrin.h>
#else
#define SYSGO_KERNELS_X86 0
#endif

namespace sysgo::simulator {

namespace {

// ------------------------------------------------------------------ scalar

constexpr RowKernels kScalarKernels{KernelKind::kScalar, slice_step<8>};

#if SYSGO_KERNELS_X86

// -------------------------------------------------------------------- AVX2
//
// A 64-byte slice is two 256-bit lanes; `full`-ness is an exact compare
// against the mask (vptest of the xor).

__attribute__((target("avx2"))) inline bool equals_mask_avx2(__m256i u0,
                                                             __m256i u1,
                                                             __m256i m0,
                                                             __m256i m1) {
  const __m256i x =
      _mm256_or_si256(_mm256_xor_si256(u0, m0), _mm256_xor_si256(u1, m1));
  return _mm256_testz_si256(x, x) != 0;
}

__attribute__((target("avx2"))) int slice_step8_avx2(
    std::uint64_t* rows, const graph::Arc* links, std::size_t count,
    bool pairs, const std::uint64_t* mask, std::uint8_t* full) {
  const __m256i m0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask));
  const __m256i m1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + 4));
  int marked = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto a = static_cast<std::size_t>(links[i].tail);
    const auto b = static_cast<std::size_t>(links[i].head);
    auto* const ra = reinterpret_cast<__m256i*>(rows + a * 8);
    auto* const rb = reinterpret_cast<__m256i*>(rows + b * 8);
    if (pairs) {
      if ((full[a] & full[b]) != 0) continue;
      const __m256i u0 = _mm256_or_si256(_mm256_load_si256(ra),
                                         _mm256_load_si256(rb));
      const __m256i u1 = _mm256_or_si256(_mm256_load_si256(ra + 1),
                                         _mm256_load_si256(rb + 1));
      _mm256_store_si256(ra, u0);
      _mm256_store_si256(ra + 1, u1);
      _mm256_store_si256(rb, u0);
      _mm256_store_si256(rb + 1, u1);
      if (equals_mask_avx2(u0, u1, m0, m1)) {
        marked += 2 - full[a] - full[b];
        full[a] = 1;
        full[b] = 1;
      }
    } else {
      if (full[b] != 0) continue;
      const __m256i u0 = _mm256_or_si256(_mm256_load_si256(rb),
                                         _mm256_load_si256(ra));
      const __m256i u1 = _mm256_or_si256(_mm256_load_si256(rb + 1),
                                         _mm256_load_si256(ra + 1));
      _mm256_store_si256(rb, u0);
      _mm256_store_si256(rb + 1, u1);
      if (equals_mask_avx2(u0, u1, m0, m1)) {
        full[b] = 1;
        ++marked;
      }
    }
  }
  return marked;
}

constexpr RowKernels kAvx2Kernels{KernelKind::kAvx2, slice_step8_avx2};

// ------------------------------------------------------------------ AVX-512
//
// A 64-byte slice is one 512-bit lane; the step needs only AVX-512F.

__attribute__((target("avx512f"))) int slice_step8_avx512(
    std::uint64_t* rows, const graph::Arc* links, std::size_t count,
    bool pairs, const std::uint64_t* mask, std::uint8_t* full) {
  const __m512i m = _mm512_loadu_si512(mask);
  int marked = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto a = static_cast<std::size_t>(links[i].tail);
    const auto b = static_cast<std::size_t>(links[i].head);
    std::uint64_t* const ra = rows + a * 8;
    std::uint64_t* const rb = rows + b * 8;
    if (pairs) {
      if ((full[a] & full[b]) != 0) continue;
      const __m512i u =
          _mm512_or_si512(_mm512_load_si512(ra), _mm512_load_si512(rb));
      _mm512_store_si512(ra, u);
      _mm512_store_si512(rb, u);
      if (_mm512_cmpneq_epi64_mask(u, m) == 0) {
        marked += 2 - full[a] - full[b];
        full[a] = 1;
        full[b] = 1;
      }
    } else {
      if (full[b] != 0) continue;
      const __m512i u =
          _mm512_or_si512(_mm512_load_si512(rb), _mm512_load_si512(ra));
      _mm512_store_si512(rb, u);
      if (_mm512_cmpneq_epi64_mask(u, m) == 0) {
        full[b] = 1;
        ++marked;
      }
    }
  }
  return marked;
}

constexpr RowKernels kAvx512Kernels{KernelKind::kAvx512, slice_step8_avx512};

#endif  // SYSGO_KERNELS_X86

// ---------------------------------------------------------------- dispatch

bool cpu_supports(KernelKind k) noexcept {
#if SYSGO_KERNELS_X86
  switch (k) {
    case KernelKind::kScalar:
      return true;
    case KernelKind::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case KernelKind::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return k == KernelKind::kScalar;
#endif
}

/// Resolve the startup choice: SYSGO_FORCE_KERNEL wins (unknown/unsupported
/// values throw — a forced kernel silently falling back would defeat the
/// CI matrix), else the widest supported ISA.
const RowKernels& resolve_initial() {
  if (const char* force = std::getenv("SYSGO_FORCE_KERNEL");
      force != nullptr && *force != '\0') {
    KernelKind k;
    if (std::strcmp(force, "scalar") == 0) {
      k = KernelKind::kScalar;
    } else if (std::strcmp(force, "avx2") == 0) {
      k = KernelKind::kAvx2;
    } else if (std::strcmp(force, "avx512") == 0) {
      k = KernelKind::kAvx512;
    } else {
      throw std::runtime_error(
          "SYSGO_FORCE_KERNEL: unknown kernel '" + std::string(force) +
          "' (expected scalar|avx2|avx512)");
    }
    return kernel_table(k);
  }
  if (kernel_supported(KernelKind::kAvx512))
    return kernel_table(KernelKind::kAvx512);
  if (kernel_supported(KernelKind::kAvx2))
    return kernel_table(KernelKind::kAvx2);
  return kScalarKernels;
}

const RowKernels* g_active = nullptr;

}  // namespace

bool kernel_compiled(KernelKind k) noexcept {
#if SYSGO_KERNELS_X86
  return k == KernelKind::kScalar || k == KernelKind::kAvx2 ||
         k == KernelKind::kAvx512;
#else
  return k == KernelKind::kScalar;
#endif
}

bool kernel_supported(KernelKind k) noexcept {
  return kernel_compiled(k) && cpu_supports(k);
}

const RowKernels& kernel_table(KernelKind k) {
  if (!kernel_supported(k))
    throw std::runtime_error(std::string("kernel '") + kernel_name(k) +
                             "' is not supported on this host");
  switch (k) {
#if SYSGO_KERNELS_X86
    case KernelKind::kAvx2:
      return kAvx2Kernels;
    case KernelKind::kAvx512:
      return kAvx512Kernels;
#endif
    default:
      return kScalarKernels;
  }
}

const RowKernels& kernels() {
  // Magic-static once: the throw from a bad SYSGO_FORCE_KERNEL propagates
  // to the first caller (and re-arms on the next call, but a bad env var is
  // fatal to any entry point anyway).
  static const RowKernels& initial = resolve_initial();
  if (g_active == nullptr) g_active = &initial;
  return *g_active;
}

KernelKind active_kernel() { return kernels().kind; }

const char* kernel_name(KernelKind k) noexcept {
  switch (k) {
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kAvx2:
      return "avx2";
    case KernelKind::kAvx512:
      return "avx512";
  }
  return "?";
}

KernelKind force_kernel(KernelKind k) {
  const KernelKind prev = kernels().kind;  // ensures dispatch ran
  g_active = &kernel_table(k);
  return prev;
}

}  // namespace sysgo::simulator

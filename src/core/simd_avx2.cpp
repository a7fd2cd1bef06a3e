// AVX2 backend. This TU — and only this TU — is compiled with -mavx2
// (see the per-source COMPILE_OPTIONS in CMakeLists.txt); when the
// compiler or target cannot do that, __AVX2__ is unset and the backend
// reports itself absent via nullptr.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd.hpp"
#include "simd_internal.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace lsml::core::simd {

namespace {

#include "simd_kernels.inc"

inline __m256i and2_vec(__m256i a, __m256i b, __m256i ca, __m256i cb) {
  return _mm256_and_si256(_mm256_xor_si256(a, ca), _mm256_xor_si256(b, cb));
}

inline __m256i load256(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store256(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

void and2_avx2(std::uint64_t* dst, const std::uint64_t* a,
               const std::uint64_t* b, std::uint64_t ca, std::uint64_t cb,
               std::size_t n) {
  const __m256i vca = _mm256_set1_epi64x(static_cast<long long>(ca));
  const __m256i vcb = _mm256_set1_epi64x(static_cast<long long>(cb));
  std::size_t w = 0;
  for (; w + 8 <= n; w += 8) {
    store256(dst + w, and2_vec(load256(a + w), load256(b + w), vca, vcb));
    store256(dst + w + 4,
             and2_vec(load256(a + w + 4), load256(b + w + 4), vca, vcb));
  }
  for (; w + 4 <= n; w += 4)
    store256(dst + w, and2_vec(load256(a + w), load256(b + w), vca, vcb));
  for (; w < n; ++w) dst[w] = (a[w] ^ ca) & (b[w] ^ cb);
}

void sweep_avx2(std::uint64_t* base, std::size_t wpr, const SweepGate* gates,
                std::size_t count, std::uint64_t tail_mask) {
  if (wpr < 4) {
    // Narrow rows (wpr <= 3): the scalar body, still in this TU so it
    // keeps the -mavx2 codegen.
    sweep_generic(base, wpr, gates, count, tail_mask);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const SweepGate g = gates[i];
    const std::uint64_t* a = base + static_cast<std::size_t>(g.a >> 1) * wpr;
    const std::uint64_t* b = base + static_cast<std::size_t>(g.b >> 1) * wpr;
    std::uint64_t* dst = base + static_cast<std::size_t>(g.dst) * wpr;
    const __m256i vca =
        _mm256_set1_epi64x(-static_cast<long long>(g.a & 1u));
    const __m256i vcb =
        _mm256_set1_epi64x(-static_cast<long long>(g.b & 1u));
    std::size_t w = 0;
    for (; w + 8 <= wpr; w += 8) {
      store256(dst + w, and2_vec(load256(a + w), load256(b + w), vca, vcb));
      store256(dst + w + 4,
               and2_vec(load256(a + w + 4), load256(b + w + 4), vca, vcb));
    }
    for (; w + 4 <= wpr; w += 4)
      store256(dst + w, and2_vec(load256(a + w), load256(b + w), vca, vcb));
    if (w < wpr) {
      // Ragged remainder: one overlapped vector ending exactly at wpr.
      // Rewrites up to three already-computed words with identical values;
      // safe because a gate's fanin rows are always distinct from dst.
      w = wpr - 4;
      store256(dst + w, and2_vec(load256(a + w), load256(b + w), vca, vcb));
    }
    dst[wpr - 1] &= tail_mask;
  }
}

// Reductions use the generic bodies: compiled under -mavx2 they get
// hardware POPCNT (the baseline-arch build bit-twiddles std::popcount),
// which is the entire win — the loops are load-bound past that.
const Ops kAvx2 = {Backend::kAvx2,
                   "avx2",
                   &and2_avx2,
                   &sweep_avx2,
                   &popcount_generic,
                   &popcount_xor_generic,
                   &popcount_and_generic,
                   &popcount_andnot_generic};

}  // namespace

const Ops* avx2_ops() { return &kAvx2; }

}  // namespace lsml::core::simd

#else  // !defined(__AVX2__)

namespace lsml::core::simd {
const Ops* avx2_ops() { return nullptr; }
}  // namespace lsml::core::simd

#endif

// NEON backend (aarch64). NEON is baseline on aarch64, so no per-source
// flags are needed — the body is simply absent on other targets.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd.hpp"
#include "simd_internal.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace lsml::core::simd {

namespace {

#include "simd_kernels.inc"

inline uint64x2_t and2_vec(uint64x2_t a, uint64x2_t b, uint64x2_t ca,
                           uint64x2_t cb) {
  return vandq_u64(veorq_u64(a, ca), veorq_u64(b, cb));
}

void and2_neon(std::uint64_t* dst, const std::uint64_t* a,
               const std::uint64_t* b, std::uint64_t ca, std::uint64_t cb,
               std::size_t n) {
  const uint64x2_t vca = vdupq_n_u64(ca);
  const uint64x2_t vcb = vdupq_n_u64(cb);
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    vst1q_u64(dst + w,
              and2_vec(vld1q_u64(a + w), vld1q_u64(b + w), vca, vcb));
    vst1q_u64(dst + w + 2, and2_vec(vld1q_u64(a + w + 2),
                                    vld1q_u64(b + w + 2), vca, vcb));
  }
  for (; w + 2 <= n; w += 2)
    vst1q_u64(dst + w,
              and2_vec(vld1q_u64(a + w), vld1q_u64(b + w), vca, vcb));
  for (; w < n; ++w) dst[w] = (a[w] ^ ca) & (b[w] ^ cb);
}

void sweep_neon(std::uint64_t* base, std::size_t wpr, const SweepGate* gates,
                std::size_t count, std::uint64_t tail_mask) {
  if (wpr < 2) {
    sweep_generic(base, wpr, gates, count, tail_mask);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const SweepGate g = gates[i];
    const std::uint64_t* a = base + static_cast<std::size_t>(g.a >> 1) * wpr;
    const std::uint64_t* b = base + static_cast<std::size_t>(g.b >> 1) * wpr;
    std::uint64_t* dst = base + static_cast<std::size_t>(g.dst) * wpr;
    const uint64x2_t vca = vdupq_n_u64(compl_mask(g.a));
    const uint64x2_t vcb = vdupq_n_u64(compl_mask(g.b));
    std::size_t w = 0;
    for (; w + 4 <= wpr; w += 4) {
      vst1q_u64(dst + w,
                and2_vec(vld1q_u64(a + w), vld1q_u64(b + w), vca, vcb));
      vst1q_u64(dst + w + 2, and2_vec(vld1q_u64(a + w + 2),
                                      vld1q_u64(b + w + 2), vca, vcb));
    }
    for (; w + 2 <= wpr; w += 2)
      vst1q_u64(dst + w,
                and2_vec(vld1q_u64(a + w), vld1q_u64(b + w), vca, vcb));
    if (w < wpr) {
      // Odd remainder: one overlapped 128-bit vector ending at wpr (wpr >= 2;
      // fanin rows are always distinct from dst).
      w = wpr - 2;
      vst1q_u64(dst + w,
                and2_vec(vld1q_u64(a + w), vld1q_u64(b + w), vca, vcb));
    }
    dst[wpr - 1] &= tail_mask;
  }
}

// Reductions: aarch64's scalar std::popcount already lowers to the NEON
// cnt+addv sequence, so the generic bodies are the right kernels here.
const Ops kNeon = {Backend::kNeon,
                   "neon",
                   &and2_neon,
                   &sweep_neon,
                   &popcount_generic,
                   &popcount_xor_generic,
                   &popcount_and_generic,
                   &popcount_andnot_generic};

}  // namespace

const Ops* neon_ops() { return &kNeon; }

}  // namespace lsml::core::simd

#else  // !(__aarch64__ && __ARM_NEON)

namespace lsml::core::simd {
const Ops* neon_ops() { return nullptr; }
}  // namespace lsml::core::simd

#endif

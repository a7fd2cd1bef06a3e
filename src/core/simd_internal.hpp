#pragma once
// Internal linkage between the simd dispatch TU and the per-ISA backend
// TUs. Each simd_<isa>.cpp defines exactly one of these, returning its
// kernel table when the ISA was compiled in and nullptr otherwise (the
// backend TUs are always part of the build; only their bodies are gated
// on __AVX2__ / __ARM_NEON; the per-TU CMake COMPILE_OPTIONS turn on
// -mavx2 where the compiler supports it, and NEON is aarch64 baseline).
//
// Shared generic kernel *bodies* live in simd_kernels.inc, which every
// backend TU includes inside an anonymous namespace: the same source
// compiled under that TU's -m flags (hardware POPCNT under -mavx2, etc.)
// without any cross-TU ODR hazard from flag-divergent inline functions.

#include "simd.hpp"

namespace lsml::core::simd {

const Ops* avx2_ops();
const Ops* neon_ops();

}  // namespace lsml::core::simd

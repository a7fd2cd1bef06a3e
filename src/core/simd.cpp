#include "simd.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>

#include "simd_internal.hpp"

namespace lsml::core::simd {

namespace {

#include "simd_kernels.inc"

const Ops kScalar = {Backend::kScalar,
                     "scalar",
                     &and2_generic,
                     &sweep_generic,
                     &popcount_generic,
                     &popcount_xor_generic,
                     &popcount_and_generic,
                     &popcount_andnot_generic};

/// Can this CPU execute backend `b`? (Orthogonal to whether the backend's
/// kernels were compiled in — see ops_for.)
bool cpu_supports(Backend b) {
#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Backend::kNeon:
      return false;
  }
  return false;
#elif defined(__aarch64__)
  return b == Backend::kScalar || b == Backend::kNeon;
#else
  return b == Backend::kScalar;
#endif
}

const Ops* compiled_ops(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return &kScalar;
    case Backend::kAvx2:
      return avx2_ops();
    case Backend::kNeon:
      return neon_ops();
  }
  return nullptr;
}

// Test-only override; atomic so a stale read from a pool thread is a
// well-defined load rather than a TSan report.
std::atomic<const Ops*> g_forced{nullptr};

const Ops* detect() {
  if (const char* env = std::getenv("LSML_SIMD");
      env != nullptr && *env != '\0') {
    Backend b;
    if (!backend_from_string(env, &b)) {
      std::fprintf(stderr,
                   "lsml: LSML_SIMD=%s is not a backend name "
                   "(scalar|avx2|neon); auto-selecting\n",
                   env);
    } else if (const Ops* o = ops_for(b)) {
      return o;
    } else {
      std::fprintf(stderr,
                   "lsml: LSML_SIMD=%s is not available on this build/CPU; "
                   "auto-selecting\n",
                   env);
    }
  }
  for (Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (const Ops* o = ops_for(b)) return o;
  }
  return &kScalar;
}

}  // namespace

const Ops* ops_for(Backend b) {
  if (!cpu_supports(b)) return nullptr;
  return compiled_ops(b);
}

const Ops& ops() {
  if (const Ops* forced = g_forced.load(std::memory_order_acquire))
    return *forced;
  static const Ops* const resolved = detect();
  return *resolved;
}

Backend active_backend() { return ops().backend; }

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kNeon}) {
    if (ops_for(b) != nullptr) out.push_back(b);
  }
  return out;
}

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "?";
}

bool backend_from_string(const std::string& name, Backend* out) {
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kNeon}) {
    if (name == to_string(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

void force_backend(Backend b) {
  const Ops* o = ops_for(b);
  if (o == nullptr) {
    std::fprintf(stderr, "lsml: cannot force simd backend %s (unavailable)\n",
                 to_string(b));
    return;
  }
  g_forced.store(o, std::memory_order_release);
}

void clear_forced_backend() {
  g_forced.store(nullptr, std::memory_order_release);
}

}  // namespace lsml::core::simd

#pragma once
// Explicit SIMD kernels for packed 64-bit-word bit streams.
//
// Every hot loop in the library — the SimEngine AND sweep, BitVec
// reductions, accuracy scoring — is a handful of bitwise span primitives.
// This header owns them once, with one kernel table (Ops) per instruction
// set: a portable scalar backend that is always compiled, plus AVX2 and
// NEON backends compiled per-TU with the matching -m flags so the rest of
// the build stays baseline-arch.
//
// Dispatch: the active table is resolved exactly once, on first use —
// the LSML_SIMD environment override first (scalar|avx2|neon; an
// unavailable or unknown value warns on stderr and falls back), then the
// best backend the CPU supports (avx2 > neon > scalar).
//
// Determinism contract: every backend is bit-identical. Kernels are pure
// bitwise ops over whole 64-bit words (no floats, no reassociation-
// sensitive arithmetic), and the sweep kernel preserves the BitVec
// tail-zero invariant via the caller-supplied tail mask, so swapping
// backends can never change a single result bit.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lsml::core::simd {

enum class Backend : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// One AND gate of a packed sweep. Fanins are spelled as
/// (row_index << 1) | complement — the aig::Lit convention over arena
/// rows — so a gate computes
///   row(dst)[w] = (row(a >> 1)[w] ^ mask(a & 1)) &
///                 (row(b >> 1)[w] ^ mask(b & 1))
/// where mask(c) is all-ones when c is set.
struct SweepGate {
  std::uint32_t dst;
  std::uint32_t a;
  std::uint32_t b;
};

/// Kernel table of one backend. All pointers are non-null.
struct Ops {
  Backend backend;
  const char* name;

  /// dst[w] = (a[w] ^ ca) & (b[w] ^ cb) for w in [0, n); ca/cb are
  /// all-ones or all-zero complement masks.
  void (*and2)(std::uint64_t* dst, const std::uint64_t* a,
               const std::uint64_t* b, std::uint64_t ca, std::uint64_t cb,
               std::size_t n);

  /// Straight-line sweep of `count` gates (topological order required)
  /// over whole rows of an arena with `wpr` words per row. The last word
  /// of every computed row is ANDed with `tail_mask` (complemented fanins
  /// set bits past the row count, and the arena keeps the BitVec tail-zero
  /// invariant).
  void (*sweep)(std::uint64_t* base, std::size_t wpr,
                const SweepGate* gates, std::size_t count,
                std::uint64_t tail_mask);

  std::size_t (*popcount)(const std::uint64_t* p, std::size_t n);
  /// popcount(p ^ q) — the Hamming-distance reduction behind count_equal.
  std::size_t (*popcount_xor)(const std::uint64_t* p, const std::uint64_t* q,
                              std::size_t n);
  std::size_t (*popcount_and)(const std::uint64_t* p, const std::uint64_t* q,
                              std::size_t n);
  /// popcount(p & ~q).
  std::size_t (*popcount_andnot)(const std::uint64_t* p,
                                 const std::uint64_t* q, std::size_t n);
};

/// Kernel table of the active backend (env override + CPUID, resolved once
/// at first use and cached; see the dispatch order above).
const Ops& ops();

/// Backend ops() currently resolves to.
Backend active_backend();

/// Kernel table of a specific backend, or nullptr when it is not compiled
/// into this binary or this CPU cannot execute it. The parity tests sweep
/// every non-null backend.
const Ops* ops_for(Backend b);

/// Backends usable on this machine, scalar first.
std::vector<Backend> available_backends();

const char* to_string(Backend b);

/// Parses "scalar" | "avx2" | "neon" (the LSML_SIMD spellings).
bool backend_from_string(const std::string& name, Backend* out);

/// Test/bench-only: pins ops() to `b` (which must be available) until
/// clear_forced_backend(). Not safe to call concurrently with kernel use.
void force_backend(Backend b);
void clear_forced_backend();

}  // namespace lsml::core::simd

// Accelerated Montgomery limb kernels with runtime CPU dispatch.
//
// A Table is a function-pointer bundle covering the limb-level operations
// the field hot path runs millions of times per second: the CIOS
// Montgomery multiply at every width 1..kMaxLimbs and width-generic
// modular add/sub/neg. Every Montgomery multiply in the tree, field and
// RSA alike, goes through the table's one `mul` entry.
//
// Two tiers exist:
//   - portable: plain C++ (u128 carries), the one CIOS body in
//     cios_portable.h. Always available, the reference for the
//     differential fuzz suite.
//   - bmi2:     hand-scheduled inline asm at k = 4 and k = 8 (requires
//     BMI2 + ADX): MULX/ADCX/ADOX CIOS multiplies and straight-line
//     ADC/SBB add, sub and neg. Every other width runs the portable
//     entry.
//
// No entry of either tier branches on limb data or exits early: every
// conditional subtraction and wrap-around add is a full carry chain
// and a masked (AND or CMOV) select, so their timing depends on the
// width only.
//
// Selection happens once, at the first active() call: CPUID picks the
// best supported tier, MEDCRYPT_KERNEL=portable|bmi2 forces one for
// testing (clamped down to what the CPU supports, never up), and the
// result is surfaced through the obs registry as info-style gauges
// core.kernel.{portable,bmi2} = 0/1. bigint::Montgomery caches the
// table pointer at construction, so `-march` never has to leak into the
// default build: one binary runs correctly on any x86-64.
//
// Every entry of every tier is bit-identical to the portable tier on ALL
// inputs — including unreduced operands up to R-1, where the single
// conditional subtraction (cond_sub_n in cios_portable.h, MC_TAIL in
// the bmi2 asm) leaves the same not-fully-reduced residue on every tier
// (tests/kernel_diff_test.cpp pins this at every width it sweeps).
#pragma once

#include <cstddef>
#include <cstdint>

namespace medcrypt::bigint::kernels {

using u64 = std::uint64_t;

/// Widest operand every entry accepts, in limbs (4096 bits).
inline constexpr std::size_t kMaxLimbs = 64;

enum class Kind : std::uint8_t { kPortable = 0, kBmi2 = 1 };
inline constexpr std::size_t kKindCount = 2;

/// Dispatched entry points. All pointers are always non-null; tiers that
/// do not accelerate an entry alias the portable implementation.
struct Table {
  /// CIOS Montgomery product a*b*R^{-1} mod n on k-limb little-endian
  /// arrays, R = 2^(64k), for every 1 <= k <= kMaxLimbs. n is odd and
  /// n0inv = -n^{-1} mod 2^64. `out` may alias `a` and/or `b`.
  using MulFn = void (*)(const u64* a, const u64* b, const u64* n,
                         u64 n0inv, std::size_t k, u64* out);
  /// (a ± b) mod n / (-a) mod n on reduced k-limb operands; `out` may
  /// alias any input.
  using ModBinFn = void (*)(const u64* a, const u64* b, const u64* n,
                            std::size_t k, u64* out);
  using ModNegFn = void (*)(const u64* a, const u64* n, std::size_t k,
                            u64* out);

  MulFn mul;
  ModBinFn add;
  ModBinFn sub;
  ModNegFn neg;
  Kind kind;
  const char* name;
};

/// The dispatched table: detected once on first call (CPUID +
/// MEDCRYPT_KERNEL override), then immutable for the process lifetime.
const Table& active();

/// A specific tier's table, regardless of dispatch. Calling an
/// unsupported tier's accelerated entries is undefined (SIGILL) — gate
/// with cpu_supports(). The differential fuzz suite uses this to run
/// every available tier against portable.
const Table& table(Kind kind);

/// Whether this CPU can execute `kind`'s accelerated entries.
bool cpu_supports(Kind kind);

/// Lowercase tier name as used by MEDCRYPT_KERNEL and the obs gauges.
const char* kind_name(Kind kind);

// Per-tier tables (portable.cpp / bmi2.cpp). Prefer active()
// or table(); these exist so the dispatcher and tests can name a tier
// directly.
const Table& portable_table();
const Table& bmi2_table();

// The portable tier's entries (portable.cpp), named so the bmi2 tier
// calls them directly at the widths its asm does not cover.
void mul_portable(const u64* a, const u64* b, const u64* n, u64 n0inv,
                  std::size_t k, u64* out);
void add_portable(const u64* a, const u64* b, const u64* n, std::size_t k,
                  u64* out);
void sub_portable(const u64* a, const u64* b, const u64* n, std::size_t k,
                  u64* out);
void neg_portable(const u64* a, const u64* n, std::size_t k, u64* out);

// --- scratch hygiene ------------------------------------------------------

/// Volatile-scrubs a kernel scratch buffer. In wiping builds
/// (-DMEDCRYPT_WIPE_SCRATCH=ON) the kernels call this on their stack
/// scratch in the epilogue, extending the docs/SECRET_HYGIENE.md wiping
/// contract to CIOS temporaries; otherwise it compiles to nothing at the
/// call sites (see MEDCRYPT_WIPE_SCRATCH in the root CMakeLists).
inline void scrub_scratch([[maybe_unused]] u64* p,
                          [[maybe_unused]] std::size_t len) {
#if MEDCRYPT_WIPE_SCRATCH
  volatile u64* vp = p;
  for (std::size_t i = 0; i < len; ++i) vp[i] = 0;
#endif
}

}  // namespace medcrypt::bigint::kernels

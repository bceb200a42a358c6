// BMI2/ADX kernel tier: hand-scheduled CIOS Montgomery multiply for
// k = 4 and k = 8 limbs using MULX (flag-free 64x64 multiply) with the
// ADCX/ADOX dual carry chains, so the low and high halves of each row
// retire on independent CF/OF chains. The tier's `mul` entry runs the
// asm at those two widths and the portable `mul` at every other one;
// add, sub and neg are the portable entries.
//
// Everything is inline asm, so no -m flag is needed at compile time —
// the instructions are emitted literally and only ever executed when
// runtime dispatch (or a cpu_supports-gated caller) selected this tier
// on a CPU with BMI2 + ADX.
//
// Scheduling notes, shared by both kernels:
//  - The accumulator window lives entirely in registers. A CIOS row
//    needs t[0..K+1]; with K = 8 that is 10 registers, plus one scratch
//    pair (lo/hi) for MULX, one pointer register reloaded per phase, and
//    rdx (MULX's implicit multiplier) — exactly the 13 allocatable GPRs
//    available with rbp as a frame pointer. Sanitizer instrumentation
//    (ASan's stack relocation, TSan's shadow accesses) needs registers
//    of its own and makes the constraint set infeasible, so sanitized
//    builds compile this tier out entirely (the table falls back to
//    portable and cpu_supports() reports the tier unavailable; the CI
//    kernel-matrix ASan leg exercises the portable clamp-down path).
//  - Instead of shifting the window after each row, the rows are
//    instantiated from a macro with ROTATED operand names: phase 2 of a
//    row zeroes its t0 (the m*n[0] low limb cancels by construction of
//    m), and that register re-enters the next row as its t[K+1].
//  - `xorl lo, lo` clears both CF and OF before each chain; `movl $0`
//    (flag-neutral) feeds the end-of-chain folds.
//  - The final conditional subtraction is the portable tier's own
//    cond_sub_n (cios_portable.h), so both tiers share one tail.
#include <cstddef>
#include <cstdint>

#include "bigint/kernels/cios_portable.h"
#include "bigint/kernels/kernels.h"

// See the scheduling notes above: the asm is register-exact and does
// not compile under sanitizer instrumentation.
#if defined(__x86_64__) && defined(__GNUC__) &&     \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer) && \
    !__has_feature(memory_sanitizer)
#define MEDCRYPT_BMI2_ASM 1
#endif
#else
#define MEDCRYPT_BMI2_ASM 1
#endif
#endif
#ifndef MEDCRYPT_BMI2_ASM
#define MEDCRYPT_BMI2_ASM 0
#endif

namespace medcrypt::bigint::kernels {

#if MEDCRYPT_BMI2_ASM

namespace {

// --- shared chain: acc[T0..T8] += rdx * p[0..7], carries into T9 ----------
// Requires T9's incoming value small enough that the two folded carries
// cannot wrap (true for every call site: T9 is 0 or a <= 2-limb carry).
#define MC_CHAIN8(T0, T1, T2, T3, T4, T5, T6, T7, T8, T9)            \
  "xorl %k[lo], %k[lo]\n\t" /* CF = OF = 0 */                        \
  "mulxq 0(%[p]), %[lo], %[hi]\n\t"                                  \
  "adcxq %[lo], %[" T0 "]\n\t"                                       \
  "adoxq %[hi], %[" T1 "]\n\t"                                       \
  "mulxq 8(%[p]), %[lo], %[hi]\n\t"                                  \
  "adcxq %[lo], %[" T1 "]\n\t"                                       \
  "adoxq %[hi], %[" T2 "]\n\t"                                       \
  "mulxq 16(%[p]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], %[" T2 "]\n\t"                                       \
  "adoxq %[hi], %[" T3 "]\n\t"                                       \
  "mulxq 24(%[p]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], %[" T3 "]\n\t"                                       \
  "adoxq %[hi], %[" T4 "]\n\t"                                       \
  "mulxq 32(%[p]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], %[" T4 "]\n\t"                                       \
  "adoxq %[hi], %[" T5 "]\n\t"                                       \
  "mulxq 40(%[p]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], %[" T5 "]\n\t"                                       \
  "adoxq %[hi], %[" T6 "]\n\t"                                       \
  "mulxq 48(%[p]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], %[" T6 "]\n\t"                                       \
  "adoxq %[hi], %[" T7 "]\n\t"                                       \
  "mulxq 56(%[p]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], %[" T7 "]\n\t"                                       \
  "adoxq %[hi], %[" T8 "]\n\t"                                       \
  "movl $0, %k[lo]\n\t" /* flag-neutral zero */                      \
  "adcxq %[lo], %[" T8 "]\n\t"                                       \
  "adoxq %[lo], %[" T9 "]\n\t"                                       \
  "adcxq %[lo], %[" T9 "]\n\t"

#define MC_CHAIN4(T0, T1, T2, T3, T4, T5)                            \
  "xorl %k[lo], %k[lo]\n\t"                                          \
  "mulxq 0(%[p]), %[lo], %[hi]\n\t"                                  \
  "adcxq %[lo], %[" T0 "]\n\t"                                       \
  "adoxq %[hi], %[" T1 "]\n\t"                                       \
  "mulxq 8(%[p]), %[lo], %[hi]\n\t"                                  \
  "adcxq %[lo], %[" T1 "]\n\t"                                       \
  "adoxq %[hi], %[" T2 "]\n\t"                                       \
  "mulxq 16(%[p]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], %[" T2 "]\n\t"                                       \
  "adoxq %[hi], %[" T3 "]\n\t"                                       \
  "mulxq 24(%[p]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], %[" T3 "]\n\t"                                       \
  "adoxq %[hi], %[" T4 "]\n\t"                                       \
  "movl $0, %k[lo]\n\t"                                              \
  "adcxq %[lo], %[" T4 "]\n\t"                                       \
  "adoxq %[lo], %[" T5 "]\n\t"                                       \
  "adcxq %[lo], %[" T5 "]\n\t"

// --- one CIOS row: t += a[i]*b, then t += m*n and drop the zero limb -----
#define MONT_ROW8(AOFF, T0, T1, T2, T3, T4, T5, T6, T7, T8, T9)      \
  "movq %[a], %%rdx\n\t"                                             \
  "movq " AOFF "(%%rdx), %%rdx\n\t"                                  \
  "movq %[b], %[p]\n\t"                                              \
  MC_CHAIN8(T0, T1, T2, T3, T4, T5, T6, T7, T8, T9)                  \
  "movq %[" T0 "], %%rdx\n\t"                                        \
  "imulq %[n0], %%rdx\n\t" /* m = t[0] * n0inv mod 2^64 */           \
  "movq %[n], %[p]\n\t"                                              \
  MC_CHAIN8(T0, T1, T2, T3, T4, T5, T6, T7, T8, T9)

#define MONT_ROW4(AOFF, T0, T1, T2, T3, T4, T5)                      \
  "movq %[a], %%rdx\n\t"                                             \
  "movq " AOFF "(%%rdx), %%rdx\n\t"                                  \
  "movq %[b], %[p]\n\t"                                              \
  MC_CHAIN4(T0, T1, T2, T3, T4, T5)                                  \
  "movq %[" T0 "], %%rdx\n\t"                                        \
  "imulq %[n0], %%rdx\n\t"                                           \
  "movq %[n], %[p]\n\t"                                              \
  MC_CHAIN4(T0, T1, T2, T3, T4, T5)

void cios8_asm(const u64* a, const u64* b, const u64* n, u64 n0inv,
               u64* out) {
  const u64* ap = a;
  const u64* bp = b;
  const u64* np = n;
  const u64 n0 = n0inv;
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  u64 t5 = 0, t6 = 0, t7 = 0, t8 = 0, t9 = 0;
  u64 lo, hi, p;
  __asm__(
      // Row r's phase 2 zeroes its t0, which rotates in as row r+1's
      // t[K+1]; after 8 rows logical t[j] sits in register (8+j) mod 10.
      MONT_ROW8("0", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9")
      MONT_ROW8("8", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t0")
      MONT_ROW8("16", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t0", "t1")
      MONT_ROW8("24", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t0", "t1", "t2")
      MONT_ROW8("32", "t4", "t5", "t6", "t7", "t8", "t9", "t0", "t1", "t2", "t3")
      MONT_ROW8("40", "t5", "t6", "t7", "t8", "t9", "t0", "t1", "t2", "t3", "t4")
      MONT_ROW8("48", "t6", "t7", "t8", "t9", "t0", "t1", "t2", "t3", "t4", "t5")
      MONT_ROW8("56", "t7", "t8", "t9", "t0", "t1", "t2", "t3", "t4", "t5", "t6")
      : [t0] "+&r"(t0), [t1] "+&r"(t1), [t2] "+&r"(t2), [t3] "+&r"(t3),
        [t4] "+&r"(t4), [t5] "+&r"(t5), [t6] "+&r"(t6), [t7] "+&r"(t7),
        [t8] "+&r"(t8), [t9] "+&r"(t9), [lo] "=&r"(lo), [hi] "=&r"(hi),
        [p] "=&r"(p)
      // "memory" instead of per-array operands: an "m" operand naming
      // *a would pin a base register for its address, and every GPR is
      // already spoken for.
      : [a] "m"(ap), [b] "m"(bp), [n] "m"(np), [n0] "m"(n0)
      : "rdx", "cc", "memory");
  u64 t[9] = {t8, t9, t0, t1, t2, t3, t4, t5, t6};
  cond_sub_n(t, t[8], n, 8, out);
  scrub_scratch(t, 9);
}

void cios4_asm(const u64* a, const u64* b, const u64* n, u64 n0inv,
               u64* out) {
  const u64* ap = a;
  const u64* bp = b;
  const u64* np = n;
  const u64 n0 = n0inv;
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0;
  u64 lo, hi, p;
  __asm__(
      MONT_ROW4("0", "t0", "t1", "t2", "t3", "t4", "t5")
      MONT_ROW4("8", "t1", "t2", "t3", "t4", "t5", "t0")
      MONT_ROW4("16", "t2", "t3", "t4", "t5", "t0", "t1")
      MONT_ROW4("24", "t3", "t4", "t5", "t0", "t1", "t2")
      : [t0] "+&r"(t0), [t1] "+&r"(t1), [t2] "+&r"(t2), [t3] "+&r"(t3),
        [t4] "+&r"(t4), [t5] "+&r"(t5), [lo] "=&r"(lo), [hi] "=&r"(hi),
        [p] "=&r"(p)
      : [a] "m"(ap), [b] "m"(bp), [n] "m"(np), [n0] "m"(n0)
      : "rdx", "cc", "memory");
  u64 t[5] = {t4, t5, t0, t1, t2};
  cond_sub_n(t, t[4], n, 4, out);
  scrub_scratch(t, 5);
}

void mul_bmi2(const u64* a, const u64* b, const u64* n, u64 n0inv,
              std::size_t k, u64* out) {
  if (k == 8) return cios8_asm(a, b, n, n0inv, out);
  if (k == 4) return cios4_asm(a, b, n, n0inv, out);
  portable_table().mul(a, b, n, n0inv, k, out);
}

}  // namespace

const Table& bmi2_table() {
  // Modular add/sub/neg are carry-chain bound, not multiply bound, so
  // this tier shares the portable ones (dispatch keeps tiers orthogonal).
  static const Table kTable = {
      mul_bmi2,
      portable_table().add,
      portable_table().sub,
      portable_table().neg,
      Kind::kBmi2,
      "bmi2",
  };
  return kTable;
}

#else  // !MEDCRYPT_BMI2_ASM: non-x86-64, non-GNU, or sanitized build

const Table& bmi2_table() { return portable_table(); }

#endif

}  // namespace medcrypt::bigint::kernels

// BMI2/ADX kernel tier: hand-scheduled CIOS Montgomery multiply for
// k = 4 and k = 8 limbs using MULX (flag-free 64x64 multiply) with the
// ADCX/ADOX dual carry chains, so the low and high halves of each row
// retire on independent CF/OF chains, plus straight-line modular add,
// sub and neg at the same two widths. Every entry runs the asm at those
// two widths and the portable entry at every other one.
//
// Everything is inline asm, so no -m flag is needed at compile time —
// the instructions are emitted literally and only ever executed when
// runtime dispatch (or a cpu_supports-gated caller) selected this tier
// on a CPU with BMI2 + ADX.
//
// Scheduling notes, shared by both multiplies:
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
//
// Constant time: no entry branches on limb data. The one conditional
// subtraction of this tier is MC_TAIL, shared by both multiply
// epilogues and by `add`: an SBB chain over hi:t - n, then CMOVC picks
// t back when the chain borrows. `sub` adds n through a CMOV-masked
// ADCX chain, `neg` ANDs n - a with a mask of a != 0. CMOV always reads
// its memory operand, so the loads do not depend on the outcome either.
// The results are bit-identical to the portable tier's on every input.
#include <cstddef>
#include <cstdint>

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

// --- limb lists: OP(offset, register, pointer) once per limb ------------
#define MC_LIMBS4(OP, P, R0, R1, R2, R3)                             \
  OP("0", R0, P) OP("8", R1, P) OP("16", R2, P) OP("24", R3, P)
#define MC_LIMBS8(OP, P, R0, R1, R2, R3, R4, R5, R6, R7)             \
  MC_LIMBS4(OP, P, R0, R1, R2, R3)                                   \
  OP("32", R4, P) OP("40", R5, P) OP("48", R6, P) OP("56", R7, P)

#define MC_LOAD(OFF, R, P) "movq " OFF "(%[" P "]), %[" R "]\n\t"
#define MC_STORE(OFF, R, P) "movq %[" R "], " OFF "(%[" P "])\n\t"
#define MC_ADC(OFF, R, P) "adcq " OFF "(%[" P "]), %[" R "]\n\t"
#define MC_SBB(OFF, R, P) "sbbq " OFF "(%[" P "]), %[" R "]\n\t"
#define MC_CMOVC(OFF, R, P) "cmovcq " OFF "(%[" P "]), %[" R "]\n\t"

// --- the one conditional subtraction: out = hi:t - n if hi:t >= n, else t
// LIMBS names the registers holding t; NP/OP name registers holding the
// n and out pointers. t is stored to out, the SBB chain forms hi:t - n
// in the t registers, and CMOVC reloads the stored t when it borrows.
// The operands (but not n) are read before the first store, so out may
// alias them.
#define MC_TAIL(LIMBS, HI, NP, OP)                                   \
  LIMBS(MC_STORE, OP)                                                \
  "clc\n\t" LIMBS(MC_SBB, NP)                                        \
  "sbbq $0, %[" HI "]\n\t" /* CF = 1 iff hi:t < n */                 \
  LIMBS(MC_CMOVC, OP)                                                \
  LIMBS(MC_STORE, OP)

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

// After the last row, logical t[0..K) and t[K] sit in these registers.
#define MC_T8(OP, P) \
  MC_LIMBS8(OP, P, "t8", "t9", "t0", "t1", "t2", "t3", "t4", "t5")
#define MC_T4(OP, P) MC_LIMBS4(OP, P, "t4", "t5", "t0", "t1")

void cios8_asm(const u64* a, const u64* b, const u64* n, u64 n0inv,
               u64* out) {
  const u64* ap = a;
  const u64* bp = b;
  const u64* np = n;
  const u64 n0 = n0inv;
  u64* op = out;
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  u64 t5 = 0, t6 = 0, t7 = 0, t8 = 0, t9 = 0;
  u64 lo, hi, p;
  // volatile: the result leaves through memory, not the outputs.
  __asm__ volatile(
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
      "movq %[n], %[p]\n\t"
      "movq %[out], %[lo]\n\t"
      MC_TAIL(MC_T8, "t6", "p", "lo")
      : [t0] "+&r"(t0), [t1] "+&r"(t1), [t2] "+&r"(t2), [t3] "+&r"(t3),
        [t4] "+&r"(t4), [t5] "+&r"(t5), [t6] "+&r"(t6), [t7] "+&r"(t7),
        [t8] "+&r"(t8), [t9] "+&r"(t9), [lo] "=&r"(lo), [hi] "=&r"(hi),
        [p] "=&r"(p)
      // "memory" instead of per-array operands: an "m" operand naming
      // *a would pin a base register for its address, and every GPR is
      // already spoken for.
      : [a] "m"(ap), [b] "m"(bp), [n] "m"(np), [n0] "m"(n0), [out] "m"(op)
      : "rdx", "cc", "memory");
}

void cios4_asm(const u64* a, const u64* b, const u64* n, u64 n0inv,
               u64* out) {
  const u64* ap = a;
  const u64* bp = b;
  const u64* np = n;
  const u64 n0 = n0inv;
  u64* op = out;
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0;
  u64 lo, hi, p;
  __asm__ volatile(
      MONT_ROW4("0", "t0", "t1", "t2", "t3", "t4", "t5")
      MONT_ROW4("8", "t1", "t2", "t3", "t4", "t5", "t0")
      MONT_ROW4("16", "t2", "t3", "t4", "t5", "t0", "t1")
      MONT_ROW4("24", "t3", "t4", "t5", "t0", "t1", "t2")
      "movq %[n], %[p]\n\t"
      "movq %[out], %[lo]\n\t"
      MC_TAIL(MC_T4, "t2", "p", "lo")
      : [t0] "+&r"(t0), [t1] "+&r"(t1), [t2] "+&r"(t2), [t3] "+&r"(t3),
        [t4] "+&r"(t4), [t5] "+&r"(t5), [lo] "=&r"(lo), [hi] "=&r"(hi),
        [p] "=&r"(p)
      : [a] "m"(ap), [b] "m"(bp), [n] "m"(np), [n0] "m"(n0), [out] "m"(op)
      : "rdx", "cc", "memory");
}

void mul_bmi2(const u64* a, const u64* b, const u64* n, u64 n0inv,
              std::size_t k, u64* out) {
  if (k == 8) return cios8_asm(a, b, n, n0inv, out);
  if (k == 4) return cios4_asm(a, b, n, n0inv, out);
  mul_portable(a, b, n, n0inv, k, out);
}

// --- modular add/sub/neg on registers s0..s7 and m ----------------------
#define MC_S8(OP, P) \
  MC_LIMBS8(OP, P, "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7")
#define MC_S4(OP, P) MC_LIMBS4(OP, P, "s0", "s1", "s2", "s3")

// s = a + b with the carry in m, then the shared tail.
#define MC_ADD(LIMBS)                                                \
  LIMBS(MC_LOAD, "a")                                                \
  "clc\n\t" LIMBS(MC_ADC, "b")                                       \
  "movl $0, %k[m]\n\t"                                              \
  "adcq $0, %[m]\n\t" MC_TAIL(LIMBS, "m", "n", "out")

// s = a - b; ZF records "no borrow" and survives the ADCX chain that
// adds n limb by limb, each CMOVed in (borrow) or left 0.
#define MC_ADD_MASKED_N(OFF, R, P)                                   \
  "movl $0, %k[m]\n\t"                                              \
  "cmovnzq " OFF "(%[" P "]), %[m]\n\t"                              \
  "adcxq %[m], %[" R "]\n\t"
#define MC_SUB(LIMBS)                                                \
  LIMBS(MC_LOAD, "a")                                                \
  "clc\n\t" LIMBS(MC_SBB, "b")                                       \
  "sbbq %[m], %[m]\n\t"  /* m = -borrow */                           \
  "testq %[m], %[m]\n\t" /* ZF = !borrow, CF = 0 */                  \
  LIMBS(MC_ADD_MASKED_N, "n") LIMBS(MC_STORE, "out")

// m = -(a != 0), then s = (n - a) & m, so -0 stays 0.
#define MC_OR_M(OFF, R, P) "orq " OFF "(%[" P "]), %[m]\n\t"
#define MC_AND_M(OFF, R, P) "andq %[m], %[" R "]\n\t"
#define MC_NEG(LIMBS)                                                \
  "xorl %k[m], %k[m]\n\t" LIMBS(MC_OR_M, "a")                        \
  "negq %[m]\n\t" /* CF = (a != 0) */                                \
  "sbbq %[m], %[m]\n\t" LIMBS(MC_LOAD, "n")                          \
  "clc\n\t" LIMBS(MC_SBB, "a") LIMBS(MC_AND_M, "")                   \
  LIMBS(MC_STORE, "out")

#define MC_OUT4                                                      \
  [s0] "=&r"(s[0]), [s1] "=&r"(s[1]), [s2] "=&r"(s[2]),              \
      [s3] "=&r"(s[3]), [m] "=&r"(m)
#define MC_OUT8                                                      \
  MC_OUT4, [s4] "=&r"(s[4]), [s5] "=&r"(s[5]), [s6] "=&r"(s[6]),     \
      [s7] "=&r"(s[7])

// The asm blocks are volatile: the result leaves through memory.
void add_bmi2(const u64* a, const u64* b, const u64* n, std::size_t k,
              u64* out) {
  u64 s[8], m;
  if (k == 8) {
    __asm__ volatile(MC_ADD(MC_S8)
                     : MC_OUT8
                     : [a] "r"(a), [b] "r"(b), [n] "r"(n), [out] "r"(out)
                     : "cc", "memory");
  } else if (k == 4) {
    __asm__ volatile(MC_ADD(MC_S4)
                     : MC_OUT4
                     : [a] "r"(a), [b] "r"(b), [n] "r"(n), [out] "r"(out)
                     : "cc", "memory");
  } else {
    add_portable(a, b, n, k, out);
  }
}

void sub_bmi2(const u64* a, const u64* b, const u64* n, std::size_t k,
              u64* out) {
  u64 s[8], m;
  if (k == 8) {
    __asm__ volatile(MC_SUB(MC_S8)
                     : MC_OUT8
                     : [a] "r"(a), [b] "r"(b), [n] "r"(n), [out] "r"(out)
                     : "cc", "memory");
  } else if (k == 4) {
    __asm__ volatile(MC_SUB(MC_S4)
                     : MC_OUT4
                     : [a] "r"(a), [b] "r"(b), [n] "r"(n), [out] "r"(out)
                     : "cc", "memory");
  } else {
    sub_portable(a, b, n, k, out);
  }
}

void neg_bmi2(const u64* a, const u64* n, std::size_t k, u64* out) {
  u64 s[8], m;
  if (k == 8) {
    __asm__ volatile(MC_NEG(MC_S8)
                     : MC_OUT8
                     : [a] "r"(a), [n] "r"(n), [out] "r"(out)
                     : "cc", "memory");
  } else if (k == 4) {
    __asm__ volatile(MC_NEG(MC_S4)
                     : MC_OUT4
                     : [a] "r"(a), [n] "r"(n), [out] "r"(out)
                     : "cc", "memory");
  } else {
    neg_portable(a, n, k, out);
  }
}

}  // namespace

const Table& bmi2_table() {
  // Every entry runs its asm at k = 4 and 8 and the portable entry at
  // the other widths.
  static const Table kTable = {
      mul_bmi2, add_bmi2, sub_bmi2, neg_bmi2, Kind::kBmi2, "bmi2",
  };
  return kTable;
}

#else  // !MEDCRYPT_BMI2_ASM: non-x86-64, non-GNU, or sanitized build

const Table& bmi2_table() { return portable_table(); }

#endif

}  // namespace medcrypt::bigint::kernels

// The one portable CIOS Montgomery multiply and the one portable
// conditional subtraction that ends every multiply and every modular
// add, plus the borrow and mask helpers the portable add/sub/neg share.
//
// cios<K> is a template on the width: K = 0 reads the width from its
// argument (any 1 <= k <= kMaxLimbs), a nonzero K fixes it at compile
// time so the loops unroll. portable.cpp decides which widths get a
// fixed instantiation; the bmi2 asm has its own masked tail (MC_TAIL).
//
// Behavioral contract (the accelerated tiers replicate it bit for bit):
// inputs are k-limb little-endian arrays; after the interleaved
// reduction the (k+1)-limb intermediate gets exactly ONE conditional
// subtraction of n, so reduced inputs (< n) give reduced outputs, while
// out-of-range inputs (up to R-1) give a partially-reduced residue that
// every tier agrees on.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bigint/kernels/kernels.h"

namespace medcrypt::bigint::kernels {

/// All-ones if `bit` is 1, zero if it is 0. The empty asm hides the
/// value from the optimizer, so a select written as `x & mask` stays a
/// mask and is not turned back into a branch.
inline u64 mask_from_bit(u64 bit) {
  u64 mask = 0 - bit;
#if defined(__GNUC__)
  __asm__("" : "+r"(mask));
#endif
  return mask;
}

/// Borrow out of a - b - borrow_in as 0 or 1; `diff` gets the low limb.
inline u64 sub_borrow(u64 a, u64 b, u64 borrow_in, u64& diff) {
  u64 t;
  const bool b1 = __builtin_sub_overflow(a, b, &t);
  const bool b2 = __builtin_sub_overflow(t, borrow_in, &diff);
  return static_cast<u64>(b1 | b2);
}

/// out = hi:t - n if hi:t >= n, else t, where hi:t is the (k+1)-limb
/// value hi·2^(64k) + t[0..k). One subtraction, so a value below 2n
/// comes out reduced. `out` may alias `t`.
///
/// Branch-free: a full borrow chain forms hi:t - n on the stack, and a
/// mask of its final borrow selects t or the difference, with no early
/// exit and no branch on limb data.
inline void cond_sub_n(const u64* t, u64 hi, const u64* n, std::size_t k,
                       u64* out) {
  u64 d[kMaxLimbs];
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    borrow = sub_borrow(t[i], n[i], borrow, d[i]);
  }
  u64 unused;
  borrow = sub_borrow(hi, 0, borrow, unused);  // 1 iff hi:t < n
  const u64 keep_t = mask_from_bit(borrow);
  for (std::size_t i = 0; i < k; ++i) out[i] = d[i] ^ ((d[i] ^ t[i]) & keep_t);
  scrub_scratch(d, k);
}

/// CIOS product a*b*R^{-1} mod n; the width is K, or `k` when K = 0.
/// The k+2 scratch limbs live on the stack. Never inlined, so a caller
/// that switches on the width tail-calls each instantiation instead of
/// paying the widest one's frame on every path.
template <std::size_t K>
[[gnu::noinline]] void cios(const u64* a, const u64* b, const u64* n,
                            u64 n0inv, std::size_t k, u64* out) {
  using u128 = unsigned __int128;
  if constexpr (K != 0) k = K;
  u64 t[(K != 0 ? K : kMaxLimbs) + 2] = {};
  for (std::size_t i = 0; i < k; ++i) {
    // t += a[i] * b
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 s = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(s);
    t[k + 1] = static_cast<u64>(s >> 64);

    // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
    const u64 m = t[0] * n0inv;
    u128 cur = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    s = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<u64>(s);
    t[k] = t[k + 1] + static_cast<u64>(s >> 64);
    t[k + 1] = 0;
  }
  cond_sub_n(t, t[k], n, k, out);
  scrub_scratch(t, k + 2);
}

}  // namespace medcrypt::bigint::kernels

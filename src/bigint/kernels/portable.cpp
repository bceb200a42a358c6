// Portable kernel tier: plain C++ with u128 carries. This is the
// reference implementation every accelerated tier is fuzzed against,
// and the fallback installed when the CPU (or MEDCRYPT_KERNEL) rules
// the others out.
#include <cstddef>
#include <cstdint>

#include "bigint/kernels/cios_portable.h"
#include "bigint/kernels/kernels.h"

namespace medcrypt::bigint::kernels {

using u128 = unsigned __int128;

// Fixed widths only where they measured faster than the runtime-width
// loop (docs/PERF.md §5): the named sets' field widths (2, 4, 6 and 8
// limbs), sec80's 3-limb q and RSA-1024's 16 limbs.
void mul_portable(const u64* a, const u64* b, const u64* n, u64 n0inv,
                  std::size_t k, u64* out) {
  switch (k) {
    case 2: return cios<2>(a, b, n, n0inv, k, out);
    case 3: return cios<3>(a, b, n, n0inv, k, out);
    case 4: return cios<4>(a, b, n, n0inv, k, out);
    case 6: return cios<6>(a, b, n, n0inv, k, out);
    case 8: return cios<8>(a, b, n, n0inv, k, out);
    case 16: return cios<16>(a, b, n, n0inv, k, out);
    default: return cios<0>(a, b, n, n0inv, k, out);
  }
}

void add_portable(const u64* a, const u64* b, const u64* n, std::size_t k,
                  u64* out) {
  u64 carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    out[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  // The sum is in [0, 2n), possibly with a carry limb.
  cond_sub_n(out, carry, n, k, out);
}

void sub_portable(const u64* a, const u64* b, const u64* n, std::size_t k,
                  u64* out) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    borrow = sub_borrow(a[i], b[i], borrow, out[i]);
  }
  // a < b wraps back into range by adding n; otherwise n & mask is 0.
  const u64 mask = mask_from_bit(borrow);
  u64 carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 s = static_cast<u128>(out[i]) + (n[i] & mask) + carry;
    out[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
}

void neg_portable(const u64* a, const u64* n, std::size_t k, u64* out) {
  u64 nonzero = 0;
  for (std::size_t i = 0; i < k; ++i) nonzero |= a[i];
  // -0 is 0, not n: the difference is masked away when a is zero.
  const u64 mask = mask_from_bit((nonzero | (0 - nonzero)) >> 63);
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    borrow = sub_borrow(n[i], a[i], borrow, out[i]);
    out[i] &= mask;
  }
}

const Table& portable_table() {
  static const Table kTable = {
      mul_portable, add_portable,    sub_portable,
      neg_portable, Kind::kPortable, "portable",
  };
  return kTable;
}

}  // namespace medcrypt::bigint::kernels

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

namespace {

void mul4_portable(const u64* a, const u64* b, const u64* n, u64 n0inv,
                   u64* out) {
  cios_fixed<4>(a, b, n, n0inv, out);
}

void mul8_portable(const u64* a, const u64* b, const u64* n, u64 n0inv,
                   u64* out) {
  cios_fixed<8>(a, b, n, n0inv, out);
}

void add_portable(const u64* a, const u64* b, const u64* n, std::size_t k,
                  u64* out) {
  u64 carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    out[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  // Reduce: the sum is in [0, 2n), possibly with a carry limb.
  bool ge = carry != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k; i-- > 0;) {
      if (out[i] != n[i]) {
        ge = out[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u128 diff = static_cast<u128>(out[i]) - n[i] - borrow;
      out[i] = static_cast<u64>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
  }
}

void sub_portable(const u64* a, const u64* b, const u64* n, std::size_t k,
                  u64* out) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 diff = static_cast<u128>(a[i]) - b[i] - borrow;
    out[i] = static_cast<u64>(diff);
    borrow = (diff >> 64) ? 1 : 0;
  }
  if (borrow) {  // a < b: wrap back into range by adding n
    u64 carry = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u128 s = static_cast<u128>(out[i]) + n[i] + carry;
      out[i] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
  }
}

void neg_portable(const u64* a, const u64* n, std::size_t k, u64* out) {
  u64 nonzero = 0;
  for (std::size_t i = 0; i < k; ++i) nonzero |= a[i];
  if (nonzero == 0) {
    for (std::size_t i = 0; i < k; ++i) out[i] = 0;
    return;
  }
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 diff = static_cast<u128>(n[i]) - a[i] - borrow;
    out[i] = static_cast<u64>(diff);
    borrow = (diff >> 64) ? 1 : 0;
  }
}

}  // namespace

const Table& portable_table() {
  static const Table kTable = {
      mul4_portable, mul8_portable,   add_portable, sub_portable,
      neg_portable,  Kind::kPortable, "portable",
  };
  return kTable;
}

}  // namespace medcrypt::bigint::kernels

// Square-and-multiply over BigInt::mul_mod: the exponentiation oracle for
// Montgomery::pow_limbs and everything routed through it (Fp::pow,
// BigInt::pow_mod), kept independent of the Montgomery code.
#pragma once

#include "bigint/bigint.h"

namespace medcrypt::test {

inline bigint::BigInt naive_pow_mod(const bigint::BigInt& base,
                                    const bigint::BigInt& e,
                                    const bigint::BigInt& m) {
  bigint::BigInt r = bigint::BigInt(1).mod(m);
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    r = r.mul_mod(r, m);
    if (e.bit(i)) r = r.mul_mod(base, m);
  }
  return r;
}

}  // namespace medcrypt::test

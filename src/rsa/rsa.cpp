#include "rsa/rsa.h"

#include <utility>

#include "bigint/prime.h"
#include "common/error.h"

namespace medcrypt::rsa {

PrivateKey generate_key(const KeyGenOptions& options, RandomSource& rng) {
  if (options.modulus_bits < 64) {
    throw InvalidArgument("rsa::generate_key: modulus too small");
  }
  const std::size_t half_bits = options.modulus_bits / 2;
  const BigInt one(std::uint64_t{1});

  for (;;) {
    const BigInt p = options.safe_primes
                         ? bigint::generate_safe_prime(half_bits, rng)
                         : bigint::generate_prime(half_bits, rng);
    const BigInt q = options.safe_primes
                         ? bigint::generate_safe_prime(options.modulus_bits - half_bits, rng)
                         : bigint::generate_prime(options.modulus_bits - half_bits, rng);
    if (p == q) continue;
    const BigInt n = p * q;
    if (n.bit_length() != options.modulus_bits) continue;
    const BigInt phi = (p - one) * (q - one);
    if (BigInt::gcd(options.public_exponent, phi) != one) continue;
    const BigInt d = options.public_exponent.mod_inverse(phi);
    return PrivateKey{PublicKey{n, options.public_exponent}, d, p, q, phi};
  }
}

BigInt public_op(const PublicKey& key, const BigInt& x) {
  if (x.is_negative() || x >= key.n) {
    throw InvalidArgument("rsa::public_op: input out of range");
  }
  return x.pow_mod(key.e, key.n);
}

BigInt private_op(const PrivateKey& key, const BigInt& x) {
  if (x.is_negative() || x >= key.pub.n) {
    throw InvalidArgument("rsa::private_op: input out of range");
  }
  return x.pow_mod(key.d, key.pub.n);
}

std::pair<BigInt, BigInt> split_exponent(const BigInt& d, const BigInt& phi,
                                         RandomSource& rng) {
  // The halves are moved out, so no copy of either outlives the call;
  // d mod φ is wiped here.
  BigInt d_user = BigInt::random_unit(rng, phi);
  BigInt d_mod_phi = d.mod(phi);
  const bigint::ScopedWipe wipe_d(d_mod_phi);
  BigInt d_sem = d_mod_phi.sub_mod(d_user, phi);
  return {std::move(d_user), std::move(d_sem)};
}

std::optional<std::pair<BigInt, BigInt>> factor_from_exponents(
    const BigInt& n, const BigInt& e, const BigInt& d, RandomSource& rng,
    int tries) {
  const BigInt one(std::uint64_t{1});
  // e·d - 1 is a multiple of φ(n); write it as 2^t · r with r odd.
  BigInt k = e * d - one;
  if (k.is_zero() || k.is_negative()) return std::nullopt;
  std::size_t t = 0;
  while (k.is_even()) {
    k = k >> 1;
    ++t;
  }
  const BigInt n_minus_1 = n - one;
  for (int attempt = 0; attempt < tries; ++attempt) {
    const BigInt g = BigInt::random_below(rng, n - BigInt(3)) + BigInt(2);
    BigInt x = g.pow_mod(k, n);
    if (x == one || x == n_minus_1) continue;
    for (std::size_t i = 0; i < t; ++i) {
      const BigInt y = x.mul_mod(x, n);
      if (y == one) {
        // x is a nontrivial square root of 1: gcd(x-1, n) splits n.
        const BigInt p = BigInt::gcd(x - one, n);
        if (p > one && p < n) return std::make_pair(p, n / p);
        break;
      }
      if (y == n_minus_1) break;
      x = y;
    }
  }
  return std::nullopt;
}

}  // namespace medcrypt::rsa

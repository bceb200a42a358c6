#include "bigint/prime.h"

#include <algorithm>
#include <array>

#include "bigint/montgomery.h"
#include "common/error.h"

namespace medcrypt::bigint {

namespace {

// Primes below 1000 for the trial-division pre-sieve.
constexpr std::array<std::uint64_t, 168> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
    353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433,
    439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613,
    617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701,
    709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809,
    811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887,
    907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997};

// n mod d for small d via limb-wise reduction (cheaper than full divmod).
std::uint64_t mod_small(const BigInt& n, std::uint64_t d) {
  unsigned __int128 rem = 0;
  const auto& limbs = n.limbs();
  for (std::size_t i = limbs.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs[i]) % d;
  }
  return static_cast<std::uint64_t>(rem);
}

}  // namespace

bool is_probable_prime(const BigInt& n, RandomSource& rng, int rounds) {
  const BigInt two(std::uint64_t{2});
  if (n < two) return false;
  for (std::uint64_t p : kSmallPrimes) {
    if (n == BigInt(p)) return true;
    if (mod_small(n, p) == 0) return false;
  }
  // n is odd and > 1000 here. Write n-1 = d * 2^s.
  const BigInt n_minus_1 = n - BigInt(std::uint64_t{1});
  std::size_t s = 0;
  BigInt d = n_minus_1;
  while (d.is_even()) {
    d = d >> 1;
    ++s;
  }
  // The rounds run in the Montgomery domain, where 1 and n - 1 are
  // R mod n and its negation.
  const Montgomery mont(n);
  const std::size_t k = mont.limbs();
  const std::uint64_t* one = mont.one_limbs();
  std::uint64_t minus_one[Montgomery::kMaxLimbs] = {};
  mont.neg_limbs(one, minus_one);
  const auto equals = [k](const std::uint64_t* a, const std::uint64_t* b) {
    return std::equal(a, a + k, b);
  };
  std::uint64_t x[Montgomery::kMaxLimbs] = {};
  for (int round = 0; round < rounds; ++round) {
    const BigInt a =
        BigInt::random_below(rng, n - BigInt(std::uint64_t{3})) + two;  // [2, n-2]
    mont.to_mont_limbs(a, x);
    mont.pow_limbs(x, d, x);
    if (equals(x, one) || equals(x, minus_one)) continue;
    bool composite = true;
    for (std::size_t i = 1; i < s; ++i) {
      mont.mul_limbs(x, x, x);
      if (equals(x, minus_one)) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt generate_prime(std::size_t bits, RandomSource& rng) {
  if (bits < 3) throw InvalidArgument("generate_prime: need >= 3 bits");
  const BigInt one(std::uint64_t{1});
  const BigInt top = one << (bits - 1);
  for (;;) {
    BigInt c = BigInt::random_bits(rng, bits - 1) + top;  // force top bit
    if (c.is_even()) c += one;
    if (c.bit_length() != bits) continue;
    if (is_probable_prime(c, rng)) return c;
  }
}

BigInt generate_safe_prime(std::size_t bits, RandomSource& rng) {
  if (bits < 4) throw InvalidArgument("generate_safe_prime: need >= 4 bits");
  const BigInt one(std::uint64_t{1});
  const BigInt two(std::uint64_t{2});
  for (;;) {
    // Generate candidate q with bits-1 bits; p = 2q+1 has `bits` bits.
    const BigInt q = generate_prime(bits - 1, rng);
    const BigInt p = q * two + one;
    if (p.bit_length() == bits && is_probable_prime(p, rng)) return p;
  }
}

BigInt generate_blum_prime(std::size_t bits, RandomSource& rng) {
  const BigInt three(std::uint64_t{3});
  const BigInt four(std::uint64_t{4});
  for (;;) {
    const BigInt p = generate_prime(bits, rng);
    if (p % four == three) return p;
  }
}

}  // namespace medcrypt::bigint

// Unit and property tests for the bigint module: BigInt arithmetic,
// Montgomery exponentiation, and primality testing.
#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "common/error.h"
#include "bigint/montgomery.h"
#include "bigint/prime.h"
#include "hash/drbg.h"
#include "naive_pow.h"

namespace medcrypt::bigint {
namespace {

using hash::HmacDrbg;

TEST(BigInt, ZeroBasics) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_negative());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_dec(), "0");
  EXPECT_EQ(z + z, z);
  EXPECT_EQ(z * BigInt(42), z);
}

TEST(BigInt, NativeConstruction) {
  EXPECT_EQ(BigInt(std::int64_t{-5}).to_dec(), "-5");
  EXPECT_EQ(BigInt(std::uint64_t{18446744073709551615ULL}).to_dec(),
            "18446744073709551615");
  EXPECT_EQ(BigInt(std::int64_t{INT64_MIN}).to_dec(), "-9223372036854775808");
}

TEST(BigInt, HexRoundTrip) {
  const char* cases[] = {"0", "1", "ff", "deadbeef", "123456789abcdef0",
                         "1000000000000000000000000000001",
                         "-abcdef0123456789abcdef"};
  for (const char* c : cases) {
    EXPECT_EQ(BigInt::from_hex(c).to_hex(), c);
  }
}

TEST(BigInt, DecRoundTrip) {
  const char* cases[] = {"0", "7", "10", "18446744073709551616",
                         "340282366920938463463374607431768211456",
                         "-99999999999999999999999999999999999999"};
  for (const char* c : cases) {
    EXPECT_EQ(BigInt::from_dec(c).to_dec(), c);
  }
}

TEST(BigInt, BytesRoundTrip) {
  HmacDrbg rng(1);
  for (int i = 0; i < 50; ++i) {
    const BigInt v = BigInt::random_bits(rng, 1 + i * 13);
    const Bytes b = v.to_bytes_be();
    EXPECT_EQ(BigInt::from_bytes_be(b), v);
  }
}

TEST(BigInt, PaddedBytes) {
  const BigInt v = BigInt::from_hex("abcd");
  const Bytes b = v.to_bytes_be_padded(4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(to_hex(b), "0000abcd");
  EXPECT_THROW(v.to_bytes_be_padded(1), InvalidArgument);
}

TEST(BigInt, AdditionCarries) {
  const BigInt a = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ((a + BigInt(1)).to_hex(), "100000000000000000000000000000000");
  EXPECT_EQ((a + a).to_hex(), "1fffffffffffffffffffffffffffffffe");
}

TEST(BigInt, SignedArithmetic) {
  const BigInt a = BigInt::from_dec("1000");
  const BigInt b = BigInt::from_dec("-1234");
  EXPECT_EQ((a + b).to_dec(), "-234");
  EXPECT_EQ((a - b).to_dec(), "2234");
  EXPECT_EQ((b - a).to_dec(), "-2234");
  EXPECT_EQ((a * b).to_dec(), "-1234000");
  EXPECT_EQ((-a).to_dec(), "-1000");
  EXPECT_EQ((-a).abs().to_dec(), "1000");
}

TEST(BigInt, MultiplicationKnownValue) {
  const BigInt a = BigInt::from_dec("123456789012345678901234567890");
  const BigInt b = BigInt::from_dec("987654321098765432109876543210");
  EXPECT_EQ((a * b).to_dec(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).to_dec(), "3");
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_dec(), "-3");
  EXPECT_EQ((BigInt(7) % BigInt(2)).to_dec(), "1");
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_dec(), "-1");
  EXPECT_EQ((BigInt(-7) % BigInt(-2)).to_dec(), "-1");
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), InvalidArgument);
  EXPECT_THROW(BigInt(1) % BigInt(0), InvalidArgument);
}

TEST(BigInt, DivModPropertyRandom) {
  HmacDrbg rng(2);
  for (int i = 0; i < 200; ++i) {
    const BigInt a = BigInt::random_bits(rng, 20 + (i * 7) % 700);
    BigInt b = BigInt::random_bits(rng, 1 + (i * 13) % 350);
    if (b.is_zero()) b = BigInt(1);
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a) << "iteration " << i;
    EXPECT_LT(r.abs(), b.abs());
  }
}

TEST(BigInt, KnuthDivisionAddBackCase) {
  // Crafted to exercise the rare "add back" branch: divisor with max top
  // limbs, dividend just below a multiple.
  const BigInt b = BigInt::from_hex("ffffffffffffffff0000000000000000ffffffffffffffff");
  const BigInt q_expect = BigInt::from_hex("fffffffffffffffe");
  const BigInt a = b * q_expect - BigInt(1);
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

TEST(BigInt, Shifts) {
  const BigInt v = BigInt::from_hex("123456789abcdef");
  EXPECT_EQ((v << 4).to_hex(), "123456789abcdef0");
  EXPECT_EQ((v << 64 >> 64), v);
  EXPECT_EQ((v >> 200).to_hex(), "0");
  EXPECT_EQ((v << 0), v);
  EXPECT_EQ((v >> 0), v);
  EXPECT_EQ((v << 67).to_hex(), "91a2b3c4d5e6f780000000000000000");
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(-2), BigInt(1));
  EXPECT_LT(BigInt(-5), BigInt(-2));
  EXPECT_GT(BigInt::from_hex("10000000000000000"), BigInt::from_hex("ffffffffffffffff"));
  EXPECT_EQ(BigInt(5), BigInt(std::uint64_t{5}));
}

TEST(BigInt, ModCanonical) {
  const BigInt m(7);
  EXPECT_EQ(BigInt(-1).mod(m).to_dec(), "6");
  EXPECT_EQ(BigInt(13).mod(m).to_dec(), "6");
  EXPECT_EQ(BigInt(0).mod(m).to_dec(), "0");
  EXPECT_THROW(BigInt(1).mod(BigInt(0)), InvalidArgument);
}

TEST(BigInt, AddSubMod) {
  const BigInt m(97);
  const BigInt a(90), b(20);
  EXPECT_EQ(a.add_mod(b, m).to_dec(), "13");
  EXPECT_EQ(b.sub_mod(a, m).to_dec(), "27");
}

TEST(BigInt, PowModSmall) {
  EXPECT_EQ(BigInt(2).pow_mod(BigInt(10), BigInt(1001)).to_dec(), "23");
  EXPECT_EQ(BigInt(3).pow_mod(BigInt(0), BigInt(7)).to_dec(), "1");
  EXPECT_EQ(BigInt(0).pow_mod(BigInt(5), BigInt(7)).to_dec(), "0");
}

TEST(BigInt, PowModFermat) {
  // Fermat: a^(p-1) = 1 mod p for prime p.
  const BigInt p = BigInt::from_dec("170141183460469231731687303715884105727");  // 2^127-1
  HmacDrbg rng(3);
  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt::random_unit(rng, p);
    EXPECT_EQ(a.pow_mod(p - BigInt(1), p), BigInt(1));
  }
}

TEST(BigInt, GcdAndInverse) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)).to_dec(), "12");
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_dec(), "5");
  EXPECT_EQ(BigInt::gcd(BigInt(-48), BigInt(36)).to_dec(), "12");

  const BigInt m(97);
  for (int a = 1; a < 97; ++a) {
    const BigInt inv = BigInt(a).mod_inverse(m);
    EXPECT_EQ((BigInt(a) * inv).mod(m), BigInt(1));
  }
  EXPECT_THROW(BigInt(6).mod_inverse(BigInt(9)), InvalidArgument);
}

TEST(BigInt, ExtendedGcdBezout) {
  HmacDrbg rng(4);
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_bits(rng, 1 + i * 5);
    const BigInt b = BigInt::random_bits(rng, 1 + i * 3);
    BigInt x, y;
    const BigInt g = BigInt::extended_gcd(a, b, x, y);
    EXPECT_EQ(a * x + b * y, g);
    EXPECT_EQ(g, BigInt::gcd(a, b));
  }
}

TEST(BigInt, RandomBelowIsInRange) {
  HmacDrbg rng(5);
  const BigInt bound = BigInt::from_dec("1000000007");
  for (int i = 0; i < 100; ++i) {
    const BigInt v = BigInt::random_below(rng, bound);
    EXPECT_GE(v, BigInt(0));
    EXPECT_LT(v, bound);
  }
  const BigInt u = BigInt::random_unit(rng, BigInt(2));
  EXPECT_EQ(u, BigInt(1));
}

TEST(Montgomery, MatchesNaivePowMod) {
  HmacDrbg rng(6);
  // 2/4/6/8/16 limbs reach every fixed-width mul_limbs branch; 1, 3 and
  // 32 limbs run the generic CIOS loop.
  for (const std::size_t k : {1, 2, 3, 4, 6, 8, 16, 32}) {
    const BigInt top = BigInt(1) << (64 * k - 1);
    BigInt m = BigInt::random_bits(rng, 64 * k - 1) + top;
    if (m.is_even()) m += BigInt(1);
    const Montgomery mont(m);
    ASSERT_EQ(mont.limbs(), k);

    // Exponents: 0 and 1, an all-ones window, long zero runs, and bit
    // lengths both ≡ 0 and ≢ 0 (mod 4).
    std::vector<BigInt> exps = {BigInt(0), BigInt(1), BigInt(0xf),
                                BigInt(0xfff), (BigInt(1) << 200) + BigInt(1),
                                (BigInt(0xf) << 157) + BigInt(0xf0),
                                BigInt(1) << 64};
    const std::size_t widths[] = {127, 128, 129, 130, 64 * k};
    for (const std::size_t bits : widths) {
      exps.push_back(BigInt::random_bits(rng, bits) + (BigInt(1) << bits));
    }
    const std::vector<BigInt> bases = {BigInt(0), BigInt(1), m - BigInt(1),
                                       BigInt::random_below(rng, m),
                                       BigInt::random_below(rng, m)};
    std::vector<std::uint64_t> x(k), y(k);
    for (const BigInt& a : bases) {
      mont.to_mont_limbs(a, x.data());
      EXPECT_EQ(mont.from_mont_limbs(x.data()), a) << "k=" << k;
      for (const BigInt& e : exps) {
        const BigInt expect = test::naive_pow_mod(a, e, m);
        mont.pow_limbs(x.data(), e, y.data());
        EXPECT_EQ(mont.from_mont_limbs(y.data()), expect)
            << "k=" << k << " e=" << e.to_hex();
        EXPECT_EQ(a.pow_mod(e, m), expect) << "k=" << k;
      }
      // `out` aliasing the base.
      y = x;
      mont.pow_limbs(y.data(), exps.back(), y.data());
      EXPECT_EQ(mont.from_mont_limbs(y.data()),
                test::naive_pow_mod(a, exps.back(), m));
    }

    // Product round trip against BigInt::mul_mod.
    const BigInt a = BigInt::random_below(rng, m);
    const BigInt b = BigInt::random_below(rng, m);
    mont.to_mont_limbs(a, x.data());
    mont.to_mont_limbs(b, y.data());
    mont.mul_limbs(x.data(), y.data(), x.data());
    EXPECT_EQ(mont.from_mont_limbs(x.data()), a.mul_mod(b, m)) << "k=" << k;

    EXPECT_THROW(mont.pow_limbs(x.data(), BigInt(-1), y.data()),
                 InvalidArgument);
  }
}

// jacobi_limbs on a composite modulus n = 103·107, every residue in
// Montgomery form: the product of the two Legendre symbols (Euler's
// criterion mod each prime), so 0 exactly on the multiples of 103 or
// 107.
TEST(Montgomery, JacobiMatchesLegendreProductOnCompositeModulus) {
  const auto legendre = [](std::uint64_t a, std::uint64_t p) {
    const BigInt e = BigInt(a).pow_mod(BigInt((p - 1) / 2), BigInt(p));
    return e.is_zero() ? 0 : e == BigInt(1) ? 1 : -1;
  };
  const Montgomery mont(BigInt(103 * 107));
  std::uint64_t x[1];
  int zeros = 0;
  for (std::uint64_t a = 0; a < 103 * 107; ++a) {
    mont.to_mont_limbs(BigInt(a), x);
    const std::optional<int> symbol = mont.jacobi_limbs(x);
    ASSERT_TRUE(symbol.has_value()) << a;
    ASSERT_EQ(*symbol, legendre(a, 103) * legendre(a, 107)) << a;
    zeros += *symbol == 0;
  }
  EXPECT_EQ(zeros, 103 + 107 - 1);

  // Four limbs: the product of the toy64 and sec80 Solinas orders.
  const BigInt p1 = (BigInt(1) << 64) - (BigInt(1) << 8) - BigInt(1);
  const BigInt p2 = (BigInt(1) << 160) - (BigInt(1) << 31) - BigInt(1);
  const auto big_legendre = [](const BigInt& a, const BigInt& p) {
    const BigInt e = a.pow_mod((p - BigInt(1)) >> 1, p);
    return e.is_zero() ? 0 : e == BigInt(1) ? 1 : -1;
  };
  const Montgomery wide(p1 * p2);
  ASSERT_EQ(wide.limbs(), 4u);
  HmacDrbg rng(71);
  std::uint64_t y[4];
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::random_below(rng, p1 * p2);
    if (i % 10 == 0) a = (a * p1).mod(p1 * p2);  // shares the factor p1
    wide.to_mont_limbs(a, y);
    const std::optional<int> symbol = wide.jacobi_limbs(y);
    ASSERT_TRUE(symbol.has_value()) << i;
    EXPECT_EQ(*symbol, big_legendre(a, p1) * big_legendre(a, p2)) << i;
  }
}

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(Montgomery(BigInt(10)), InvalidArgument);
  EXPECT_THROW(Montgomery(BigInt(1)), InvalidArgument);
  // Wider than kMaxLimbs (4096 bits), odd.
  EXPECT_THROW(Montgomery((BigInt(1) << 4096) + BigInt(1)), InvalidArgument);
}

TEST(Prime, SmallKnownPrimes) {
  HmacDrbg rng(7);
  EXPECT_FALSE(is_probable_prime(BigInt(0), rng));
  EXPECT_FALSE(is_probable_prime(BigInt(1), rng));
  EXPECT_TRUE(is_probable_prime(BigInt(2), rng));
  EXPECT_TRUE(is_probable_prime(BigInt(3), rng));
  EXPECT_FALSE(is_probable_prime(BigInt(4), rng));
  EXPECT_TRUE(is_probable_prime(BigInt(997), rng));
  EXPECT_FALSE(is_probable_prime(BigInt(999), rng));
  EXPECT_TRUE(is_probable_prime(BigInt::from_dec("1000000007"), rng));
  EXPECT_TRUE(is_probable_prime(BigInt::from_dec("170141183460469231731687303715884105727"), rng));
}

TEST(Prime, CarmichaelNumbersRejected) {
  HmacDrbg rng(8);
  for (std::uint64_t n : {561ULL, 1105ULL, 1729ULL, 2465ULL, 2821ULL, 6601ULL,
                          8911ULL, 10585ULL, 15841ULL, 29341ULL}) {
    EXPECT_FALSE(is_probable_prime(BigInt(n), rng)) << n;
  }
}

TEST(Prime, GeneratePrimeHasRequestedSize) {
  HmacDrbg rng(9);
  for (std::size_t bits : {32u, 64u, 128u, 256u}) {
    const BigInt p = generate_prime(bits, rng);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probable_prime(p, rng));
  }
}

TEST(Prime, GenerateSafePrime) {
  HmacDrbg rng(10);
  const BigInt p = generate_safe_prime(64, rng);
  EXPECT_EQ(p.bit_length(), 64u);
  EXPECT_TRUE(is_probable_prime(p, rng));
  const BigInt q = (p - BigInt(1)) / BigInt(2);
  EXPECT_TRUE(is_probable_prime(q, rng));
}

TEST(Prime, GenerateBlumPrime) {
  HmacDrbg rng(11);
  const BigInt p = generate_blum_prime(80, rng);
  EXPECT_TRUE(is_probable_prime(p, rng));
  EXPECT_EQ((p % BigInt(4)).to_dec(), "3");
}

// Parameterized sweep: divmod identity across widths.
class BigIntWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(BigIntWidthTest, MulDivRoundTrip) {
  HmacDrbg rng(100 + GetParam());
  const std::size_t bits = static_cast<std::size_t>(GetParam());
  const BigInt a = BigInt::random_bits(rng, bits) + BigInt(1);
  const BigInt b = BigInt::random_bits(rng, bits / 2 + 1) + BigInt(1);
  EXPECT_EQ((a * b) / b, a);
  EXPECT_EQ((a * b) % b, BigInt(0));
  EXPECT_EQ((a * b + a / BigInt(2)) / b, a + (a / BigInt(2)) / b);
}

INSTANTIATE_TEST_SUITE_P(Widths, BigIntWidthTest,
                         ::testing::Values(8, 31, 64, 65, 127, 128, 129, 192,
                                           256, 384, 512, 777, 1024, 2048));

}  // namespace
}  // namespace medcrypt::bigint

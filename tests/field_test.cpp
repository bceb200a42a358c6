// Tests for the prime field Fp and the quadratic extension Fp2.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "field/fp.h"
#include "field/fp2.h"
#include "hash/drbg.h"
#include "pairing/params.h"

namespace medcrypt::field {
namespace {

using bigint::BigInt;
using hash::HmacDrbg;

const PrimeField* small_field() {
  return PrimeField::make(BigInt(103));  // 103 ≡ 3 (mod 4)
}

const PrimeField* big_field() {
  // 2^255 - 19 is prime and ≡ 1 (mod 4): try_sqrt refuses it.
  return PrimeField::make(BigInt::from_hex(
      "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed"));
}

const PrimeField* big_field_3mod4() {
  // secp256k1 prime, ≡ 3 (mod 4).
  return PrimeField::make(BigInt::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
}

TEST(Fp, BasicArithmetic) {
  auto f = small_field();
  const Fp a = f->from_u64(50), b = f->from_u64(60);
  EXPECT_EQ((a + b).to_bigint(), BigInt(7));    // 110 mod 103
  EXPECT_EQ((a - b).to_bigint(), BigInt(93));   // -10 mod 103
  EXPECT_EQ((a * b).to_bigint(), BigInt(3000 % 103));
  EXPECT_EQ((-a).to_bigint(), BigInt(53));
  EXPECT_EQ((-f->zero()).to_bigint(), BigInt(0));
}

TEST(Fp, IdentityAndZero) {
  auto f = small_field();
  EXPECT_TRUE(f->zero().is_zero());
  EXPECT_TRUE(f->one().is_one());
  const Fp a = f->from_u64(42);
  EXPECT_EQ(a + f->zero(), a);
  EXPECT_EQ(a * f->one(), a);
  EXPECT_TRUE((a * f->zero()).is_zero());
}

TEST(Fp, FromBigIntReduces) {
  auto f = small_field();
  EXPECT_EQ(f->from_bigint(BigInt(1030)).to_bigint(), BigInt(0));
  EXPECT_EQ(f->from_bigint(BigInt(-1)).to_bigint(), BigInt(102));
}

TEST(Fp, InverseProperty) {
  auto f = big_field_3mod4();
  HmacDrbg rng(20);
  for (int i = 0; i < 25; ++i) {
    Fp a = f->random(rng);
    if (a.is_zero()) continue;
    EXPECT_TRUE((a * a.inverse()).is_one());
  }
  EXPECT_THROW(f->zero().inverse(), InvalidArgument);
}

TEST(Fp, PowMatchesRepeatedMul) {
  auto f = small_field();
  const Fp a = f->from_u64(5);
  Fp acc = f->one();
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(a.pow(BigInt(e)), acc);
    acc *= a;
  }
}

TEST(Fp, FermatLittleTheorem) {
  auto f = big_field();
  HmacDrbg rng(21);
  const BigInt exp = f->modulus() - BigInt(1);
  for (int i = 0; i < 5; ++i) {
    Fp a = f->random(rng);
    if (a.is_zero()) continue;
    EXPECT_TRUE(a.pow(exp).is_one());
  }
}

TEST(Fp, SqrtOn3Mod4Field) {
  auto f = big_field_3mod4();
  HmacDrbg rng(22);
  for (int i = 0; i < 20; ++i) {
    const Fp a = f->random(rng);
    const Fp sq = a.square();
    EXPECT_TRUE(sq.is_square());
    const Fp root = sq.sqrt();
    EXPECT_TRUE(root == a || root == -a);
  }
}

// Every field the library builds is ≡ 3 (mod 4), so a p ≡ 1 (mod 4)
// field gets no square root at all, not even of a square or of zero.
TEST(Fp, SqrtRejects1Mod4Field) {
  for (const auto& f : {big_field(), PrimeField::make(BigInt(97))}) {
    HmacDrbg rng(23);
    const Fp sq = f->random(rng).square();
    EXPECT_THROW(sq.try_sqrt(), InvalidArgument);
    EXPECT_THROW(sq.sqrt(), InvalidArgument);
    EXPECT_THROW(f->zero().try_sqrt(), InvalidArgument);
    EXPECT_TRUE(sq.is_square());  // Euler's criterion has no such limit
  }
}

TEST(Fp, NonSquareThrows) {
  auto f = small_field();
  int non_squares = 0;
  for (int v = 1; v < 103; ++v) {
    const Fp a = f->from_u64(v);
    if (!a.is_square()) {
      ++non_squares;
      EXPECT_THROW(a.sqrt(), InvalidArgument);
    } else {
      const Fp r = a.sqrt();
      EXPECT_EQ(r.square(), a);
    }
  }
  EXPECT_EQ(non_squares, 51);  // (p-1)/2 non-squares
}

TEST(Fp, TrySqrtMatchesEulerCriterion) {
  // The fused p ≡ 3 (mod 4) root (one power, then s^2 == x) accepts
  // exactly the squares, on every residue of two small fields.
  for (const auto& f : {small_field(), PrimeField::make(BigInt(107))}) {
    for (std::uint64_t v = 0; v < f->modulus().limbs()[0]; ++v) {
      const Fp a = f->from_u64(v);
      const std::optional<Fp> root = a.try_sqrt();
      ASSERT_EQ(root.has_value(), a.is_square()) << "v = " << v;
      if (root) {
        EXPECT_EQ(root->square(), a);
        EXPECT_EQ(*root, a.sqrt());
      }
    }
  }
  auto f = big_field_3mod4();
  HmacDrbg rng(24);
  for (int i = 0; i < 20; ++i) {
    const Fp a = f->random(rng);
    EXPECT_EQ(a.try_sqrt().has_value(), a.is_square()) << "iteration " << i;
  }
}

// The Legendre symbol is Euler's criterion with 0 for zero: on every
// residue of two small fields, on 0, 1, 2 and p − 1 and random values
// of a p ≡ 1 (mod 4) and a p ≡ 3 (mod 4) field and of the named sets'
// fields (these run on each kernel tier, as test_field_{portable,bmi2}).
int euler_symbol(const Fp& a) {
  if (a.is_zero()) return 0;
  return a.is_square() ? 1 : -1;
}

TEST(Fp, LegendreMatchesEulerCriterion) {
  for (const auto& f : {small_field(), PrimeField::make(BigInt(107))}) {
    int squares = 0;
    for (std::uint64_t v = 0; v < f->modulus().limbs()[0]; ++v) {
      const Fp a = f->from_u64(v);
      ASSERT_EQ(a.legendre(), euler_symbol(a)) << "v = " << v;
      squares += a.legendre() > 0;
    }
    EXPECT_EQ(2 * squares + 1, static_cast<int>(f->modulus().limbs()[0]));
  }
  HmacDrbg rng(25);
  for (const PrimeField* f :
       {big_field(), big_field_3mod4(),
        pairing::named_params("toy64").curve->field(),
        pairing::named_params("sec80").curve->field()}) {
    std::vector<Fp> values = {f->zero(), f->one(), f->from_u64(2),
                              -f->one()};
    for (int i = 0; i < 200; ++i) values.push_back(f->random(rng));
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(values[i].legendre(), euler_symbol(values[i]))
          << f->modulus() << " value " << i;
    }
  }
  EXPECT_THROW(Fp{}.legendre(), InvalidArgument);
}

TEST(Fp, BytesRoundTrip) {
  auto f = big_field_3mod4();
  HmacDrbg rng(24);
  for (int i = 0; i < 10; ++i) {
    const Fp a = f->random(rng);
    const Bytes b = a.to_bytes();
    EXPECT_EQ(b.size(), f->byte_size());
    EXPECT_EQ(f->from_bytes(b), a);
  }
  EXPECT_THROW(f->from_bytes(Bytes(3, 0)), InvalidArgument);
  // Value >= p rejected:
  Bytes too_big(f->byte_size(), 0xff);
  EXPECT_THROW(f->from_bytes(too_big), InvalidArgument);
}

// PrimeField::make interns: one modulus, one context pointer, so
// same-field checks are pointer compares.
TEST(PrimeField, MakeInternsOneContextPerModulus) {
  const PrimeField* a = PrimeField::make(BigInt(103));
  EXPECT_EQ(PrimeField::make(BigInt(103)), a);
  EXPECT_EQ(small_field(), a);
  const PrimeField* b = PrimeField::make(BigInt(107));
  EXPECT_NE(b, a);
  EXPECT_EQ(b->modulus(), BigInt(107));
  EXPECT_EQ(PrimeField::make(BigInt(107)), b);
  // An invalid modulus is rejected before anything is interned.
  EXPECT_THROW(PrimeField::make(BigInt(104)), InvalidArgument);
  EXPECT_THROW(PrimeField::make(BigInt(104)), InvalidArgument);
}

TEST(Fp, MixedFieldOperationThrows) {
  auto f1 = small_field();
  auto f2 = big_field();
  EXPECT_THROW(f1->one() + f2->one(), InvalidArgument);
  EXPECT_THROW(Fp{} + f1->one(), InvalidArgument);
}

// batch_inverse against one inverse per element, over the 64-bit small
// field and a 4-limb one: zeros anywhere (first, last, runs, all) stay
// zero and leave the other inverses intact.
TEST(Fp, BatchInverseMatchesSinglesAndKeepsZeros) {
  HmacDrbg rng(29);
  for (const auto& f : {small_field(), big_field_3mod4()}) {
    for (std::size_t n : {0u, 1u, 2u, 7u, 33u}) {
      for (int zeros : {0, 1, 2}) {  // none, every 3rd, all
        std::vector<Fp> xs;
        for (std::size_t i = 0; i < n; ++i) {
          const bool zero = zeros == 2 || (zeros == 1 && i % 3 == 0);
          Fp x = f->random(rng);
          while (x.is_zero()) x = f->random(rng);
          xs.push_back(zero ? f->zero() : x);
        }
        std::vector<Fp> inv = xs;
        batch_inverse(inv);
        ASSERT_EQ(inv.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          if (xs[i].is_zero()) {
            EXPECT_TRUE(inv[i].is_zero()) << i;
          } else {
            EXPECT_EQ(inv[i], xs[i].inverse()) << i;
          }
        }
      }
    }
  }
  std::vector<Fp> mixed = {small_field()->one(), big_field()->one()};
  EXPECT_THROW(batch_inverse(mixed), InvalidArgument);
}

TEST(Fp2, ComplexArithmetic) {
  auto f = small_field();
  const Fp2 x(f->from_u64(3), f->from_u64(5));   // 3 + 5i
  const Fp2 y(f->from_u64(7), f->from_u64(11));  // 7 + 11i
  // (3+5i)(7+11i) = 21 - 55 + (33+35)i = -34 + 68i
  const Fp2 prod = x * y;
  EXPECT_EQ(prod.re().to_bigint(), BigInt(-34).mod(BigInt(103)));
  EXPECT_EQ(prod.im().to_bigint(), BigInt(68));
  EXPECT_EQ((x + y).re().to_bigint(), BigInt(10));
  EXPECT_EQ((x - y).im().to_bigint(), BigInt(-6).mod(BigInt(103)));
}

TEST(Fp2, SquareMatchesMul) {
  auto f = big_field_3mod4();
  HmacDrbg rng(25);
  for (int i = 0; i < 20; ++i) {
    const Fp2 x = Fp2::random(f, rng);
    EXPECT_EQ(x.square(), x * x);
  }
}

TEST(Fp2, InverseProperty) {
  auto f = big_field_3mod4();
  HmacDrbg rng(26);
  for (int i = 0; i < 20; ++i) {
    const Fp2 x = Fp2::random(f, rng);
    if (x.is_zero()) continue;
    EXPECT_TRUE((x * x.inverse()).is_one());
  }
  EXPECT_THROW(Fp2(f->zero(), f->zero()).inverse(), InvalidArgument);
}

TEST(Fp2, ConjugateIsFrobenius) {
  // For p ≡ 3 (mod 4), x^p = conjugate(x) in F_{p^2}.
  auto f = small_field();
  HmacDrbg rng(27);
  for (int i = 0; i < 10; ++i) {
    const Fp2 x = Fp2::random(f, rng);
    EXPECT_EQ(x.pow(f->modulus()), x.conjugate());
  }
}

TEST(Fp2, NormIsMultiplicative) {
  auto f = big_field_3mod4();
  HmacDrbg rng(28);
  const Fp2 x = Fp2::random(f, rng), y = Fp2::random(f, rng);
  EXPECT_EQ((x * y).norm(), x.norm() * y.norm());
}

TEST(Fp2, PowAddsExponents) {
  auto f = small_field();
  HmacDrbg rng(29);
  const Fp2 x = Fp2::random(f, rng);
  EXPECT_EQ(x.pow(BigInt(13)) * x.pow(BigInt(29)), x.pow(BigInt(42)));
  EXPECT_TRUE(x.pow(BigInt(0)).is_one());
}

TEST(Fp2, MultiplicativeGroupOrder) {
  // x^(p^2 - 1) = 1 for x != 0.
  auto f = small_field();
  HmacDrbg rng(30);
  const BigInt p = f->modulus();
  const Fp2 x = Fp2::random(f, rng);
  if (!x.is_zero()) {
    EXPECT_TRUE(x.pow(p * p - BigInt(1)).is_one());
  }
}

TEST(Fp2, BytesRoundTrip) {
  auto f = big_field_3mod4();
  HmacDrbg rng(31);
  const Fp2 x = Fp2::random(f, rng);
  const Bytes b = x.to_bytes();
  EXPECT_EQ(b.size(), 2 * f->byte_size());
  EXPECT_EQ(Fp2::from_bytes(f, b), x);
  EXPECT_THROW(Fp2::from_bytes(f, Bytes(5, 0)), InvalidArgument);
}

TEST(Fp2, EmbeddingFromFp) {
  auto f = small_field();
  const Fp2 x(f->from_u64(9));
  EXPECT_EQ(x.re().to_bigint(), BigInt(9));
  EXPECT_TRUE(x.im().is_zero());
}

}  // namespace
}  // namespace medcrypt::field

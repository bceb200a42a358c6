// Differential tests for the fixed-limb arithmetic rewrite: every Fp/Fp2
// operation (including the in-place hot-path variants) is checked against
// a naive BigInt reference on random inputs, and the fixed-base window
// tables are checked against plain double-and-add — including the scalar
// edge cases k = 0, k = order and k > order that the window walk must
// reduce away. The public-input multi-exponentiations, ec::multi_mul and
// field::multi_pow, are checked against sums and products of single
// reference multiples.
#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "common/error.h"
#include "ec/fixed_base.h"
#include "ec/hash_to_point.h"
#include "ec/jacobian.h"
#include "field/fp.h"
#include "field/fp2.h"
#include "hash/drbg.h"
#include "naive_pow.h"
#include "pairing/params.h"

namespace medcrypt {
namespace {

using bigint::BigInt;
using ec::FixedBaseTable;
using ec::Point;
using field::Fp;
using field::Fp2;
using field::PrimeField;
using hash::HmacDrbg;

// The limb widths the suite exercises: 1-limb, a mid-size prime, the
// 4-limb secp256k1 prime, the 6-limb P-384 prime and the 8-limb sec80
// pairing prime the paper's parameters run on (all ≡ 3 mod 4 so sqrt()
// is the cheap exponentiation path the pairing parameters use).
std::vector<const PrimeField*> test_fields() {
  return {
      PrimeField::make(BigInt(103)),
      PrimeField::make(BigInt::from_hex("ffffffffffffffc5")),  // 2^64 - 59
      PrimeField::make(BigInt::from_hex(
          "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")),
      PrimeField::make(BigInt::from_hex(
          "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe"
          "ffffffff0000000000000000ffffffff")),
      pairing::paper_params().curve->field(),
  };
}

// ---------------------------------------------------------------------------
// Fp vs BigInt reference
// ---------------------------------------------------------------------------

TEST(ArithDiff, FpValueOpsMatchBigInt) {
  HmacDrbg rng(9001);
  for (const auto& f : test_fields()) {
    const BigInt& p = f->modulus();
    for (int iter = 0; iter < 50; ++iter) {
      const BigInt av = BigInt::random_below(rng, p);
      const BigInt bv = BigInt::random_below(rng, p);
      const Fp a = f->from_bigint(av), b = f->from_bigint(bv);

      EXPECT_EQ((a + b).to_bigint(), av.add_mod(bv, p));
      EXPECT_EQ((a - b).to_bigint(), av.sub_mod(bv, p));
      EXPECT_EQ((a * b).to_bigint(), av.mul_mod(bv, p));
      EXPECT_EQ((-a).to_bigint(), BigInt(0).sub_mod(av, p));
      EXPECT_EQ(a.square().to_bigint(), av.mul_mod(av, p));
      EXPECT_EQ(a.dbl().to_bigint(), av.add_mod(av, p));
    }
  }
}

TEST(ArithDiff, FpInplaceOpsMatchBigInt) {
  HmacDrbg rng(9002);
  for (const auto& f : test_fields()) {
    const BigInt& p = f->modulus();
    for (int iter = 0; iter < 50; ++iter) {
      const BigInt av = BigInt::random_below(rng, p);
      const BigInt bv = BigInt::random_below(rng, p);
      const Fp a = f->from_bigint(av), b = f->from_bigint(bv);

      Fp t = a;
      t += b;
      EXPECT_EQ(t.to_bigint(), av.add_mod(bv, p));
      t = a;
      t -= b;
      EXPECT_EQ(t.to_bigint(), av.sub_mod(bv, p));
      t = a;
      t *= b;
      EXPECT_EQ(t.to_bigint(), av.mul_mod(bv, p));
      t = a;
      t.square_inplace();
      EXPECT_EQ(t.to_bigint(), av.mul_mod(av, p));
      t = a;
      t.dbl_inplace();
      EXPECT_EQ(t.to_bigint(), av.add_mod(av, p));
      t = a;
      t.negate_inplace();
      EXPECT_EQ(t.to_bigint(), BigInt(0).sub_mod(av, p));
    }
  }
}

// The in-place ops promise alias safety: x op= x must equal x op x.
TEST(ArithDiff, FpInplaceOpsAliasSafe) {
  HmacDrbg rng(9003);
  for (const auto& f : test_fields()) {
    const BigInt& p = f->modulus();
    for (int iter = 0; iter < 25; ++iter) {
      const BigInt av = BigInt::random_below(rng, p);
      const Fp a = f->from_bigint(av);

      Fp t = a;
      t += t;
      EXPECT_EQ(t.to_bigint(), av.add_mod(av, p));
      t = a;
      t *= t;
      EXPECT_EQ(t.to_bigint(), av.mul_mod(av, p));
      t = a;
      t -= t;
      EXPECT_TRUE(t.is_zero());
    }
  }
}

TEST(ArithDiff, FpInverseAndPowMatchBigInt) {
  HmacDrbg rng(9004);
  for (const auto& f : test_fields()) {
    const BigInt& p = f->modulus();
    for (int iter = 0; iter < 10; ++iter) {
      const BigInt av = BigInt::random_below(rng, p);
      const BigInt ev = BigInt::random_below(rng, p);
      const Fp a = f->from_bigint(av);

      EXPECT_EQ(a.pow(ev).to_bigint(), test::naive_pow_mod(av, ev, p));
      if (!a.is_zero()) {
        EXPECT_EQ(a.inverse().to_bigint(), av.mod_inverse(p));
      }
    }

    // Edge inputs: the smallest and largest residues, the inverse of 2,
    // and powers of two around the bit length (long runs of zero bits
    // that drive the divstep count to its bound).
    std::vector<BigInt> edges = {BigInt(1), BigInt(2), p - BigInt(1),
                                 (p + BigInt(1)) >> 1};
    const std::size_t bits = p.bit_length();
    for (std::size_t j = bits - 2; j <= bits + 2; ++j) {
      edges.push_back((BigInt(1) << j).mod(p));
    }
    for (const BigInt& v : edges) {
      const Fp a = f->from_bigint(v);
      const Fp inv = a.inverse();
      EXPECT_EQ(inv.to_bigint(), v.mod_inverse(p)) << "p=" << p.to_hex();
      EXPECT_TRUE((a * inv).is_one());
    }
  }

  // Random values at the paper's width against the Fermat power a^(p-2).
  const auto f = pairing::paper_params().curve->field();
  const BigInt fermat = f->modulus() - BigInt(2);
  for (int iter = 0; iter < 1000; ++iter) {
    const Fp a = f->random(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a.inverse(), a.pow(fermat));
  }
}

// ---------------------------------------------------------------------------
// Fp2 vs component-wise BigInt reference
// ---------------------------------------------------------------------------

struct Fp2Ref {
  BigInt a, b;  // a + b·i, i^2 = -1
};

Fp2Ref ref_mul(const Fp2Ref& x, const Fp2Ref& y, const BigInt& p) {
  // (a + bi)(c + di) = (ac - bd) + (ad + bc)i
  return Fp2Ref{x.a.mul_mod(y.a, p).sub_mod(x.b.mul_mod(y.b, p), p),
                x.a.mul_mod(y.b, p).add_mod(x.b.mul_mod(y.a, p), p)};
}

TEST(ArithDiff, Fp2MulAndSquareMatchReference) {
  HmacDrbg rng(9005);
  for (const auto& f : test_fields()) {
    const BigInt& p = f->modulus();
    for (int iter = 0; iter < 25; ++iter) {
      const Fp2 x = Fp2::random(f, rng);
      const Fp2 y = Fp2::random(f, rng);
      const Fp2Ref xr{x.re().to_bigint(), x.im().to_bigint()};
      const Fp2Ref yr{y.re().to_bigint(), y.im().to_bigint()};

      const Fp2Ref prod = ref_mul(xr, yr, p);
      const Fp2 z = x * y;
      EXPECT_EQ(z.re().to_bigint(), prod.a);
      EXPECT_EQ(z.im().to_bigint(), prod.b);

      const Fp2Ref sq = ref_mul(xr, xr, p);
      const Fp2 s = x.square();
      EXPECT_EQ(s.re().to_bigint(), sq.a);
      EXPECT_EQ(s.im().to_bigint(), sq.b);

      // In-place variants, including the self-aliasing case.
      Fp2 t = x;
      t.mul_inplace(y);
      EXPECT_EQ(t, z);
      t = x;
      t.square_inplace();
      EXPECT_EQ(t, s);
      t = x;
      t.mul_inplace(t);
      EXPECT_EQ(t, s);
    }
  }
}

TEST(ArithDiff, Fp2InverseAndPow) {
  HmacDrbg rng(9006);
  for (const auto& f : test_fields()) {
    for (int iter = 0; iter < 10; ++iter) {
      const Fp2 x = Fp2::random(f, rng);
      if (x.is_zero()) continue;
      EXPECT_TRUE((x * x.inverse()).is_one());

      // pow against naive repeated multiplication for a small exponent.
      Fp2 acc = Fp2::one(f);
      for (int e = 0; e < 16; ++e) {
        EXPECT_EQ(x.pow(BigInt(e)), acc);
        acc *= x;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fixed-base tables and Point::mul vs plain double-and-add
// ---------------------------------------------------------------------------

// Textbook MSB-first double-and-add with affine additions only — the
// slow, obviously-correct reference both fast paths are compared to.
Point naive_mul(const Point& base, const BigInt& k) {
  Point acc = base.curve()->infinity();
  if (k <= BigInt(0)) return acc;
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = acc.dbl();
    if (k.bit(i)) acc += base;
  }
  return acc;
}

TEST(ArithDiff, FixedBaseTableMatchesNaiveMul) {
  const pairing::ParamSet& g = pairing::toy_params();
  const BigInt& q = g.order();
  HmacDrbg rng(9007);
  const FixedBaseTable table(g.generator, q);

  for (int iter = 0; iter < 20; ++iter) {
    const BigInt k = BigInt::random_below(rng, q);
    const Point expected = naive_mul(g.generator, k);
    EXPECT_EQ(table.mul(k), expected);
    EXPECT_EQ(g.generator.mul(k), expected);
  }
}

TEST(ArithDiff, FixedBaseTableScalarEdgeCases) {
  const pairing::ParamSet& g = pairing::toy_params();
  const BigInt& q = g.order();
  const FixedBaseTable table(g.generator, q);

  // k = 0 and k = order both hit the identity.
  EXPECT_TRUE(table.mul(BigInt(0)).is_infinity());
  EXPECT_TRUE(table.mul(q).is_infinity());
  EXPECT_TRUE(g.generator.mul(BigInt(0)).is_infinity());

  // k > order reduces: (q + 7)·P = 7·P; (2q + 1)·P = P.
  EXPECT_EQ(table.mul(q + BigInt(7)), naive_mul(g.generator, BigInt(7)));
  EXPECT_EQ(table.mul(q + q + BigInt(1)), g.generator);
  EXPECT_EQ(g.generator.mul(q + BigInt(7)),
            naive_mul(g.generator, BigInt(7)));

  // k = 1 and k = order - 1 (the -P edge of the last window).
  EXPECT_EQ(table.mul(BigInt(1)), g.generator);
  EXPECT_EQ(table.mul(q - BigInt(1)), -g.generator);
}

TEST(ArithDiff, FixedBaseTableNonGeneratorBase) {
  // A table over an arbitrary subgroup point (not the cached generator),
  // as the IBS mediator builds over its secret key halves.
  const pairing::ParamSet& g = pairing::toy_params();
  const BigInt& q = g.order();
  HmacDrbg rng(9008);
  const Point base = g.mul_g(BigInt::random_unit(rng, q));
  const FixedBaseTable table(base, q);

  for (int iter = 0; iter < 10; ++iter) {
    const BigInt k = BigInt::random_below(rng, q);
    EXPECT_EQ(table.mul(k), naive_mul(base, k));
  }
}

TEST(ArithDiff, FixedBaseTableInfinityBase) {
  const pairing::ParamSet& g = pairing::toy_params();
  const FixedBaseTable table(g.curve->infinity(), g.order());
  EXPECT_TRUE(table.mul(BigInt(5)).is_infinity());
  EXPECT_TRUE(table.mul(BigInt(0)).is_infinity());
}

TEST(ArithDiff, FixedBaseTableWipeReturnsToEmpty) {
  const pairing::ParamSet& g = pairing::toy_params();
  FixedBaseTable table(g.generator, g.order());
  EXPECT_FALSE(table.empty());
  EXPECT_GT(table.point_count(), 0u);
  table.wipe();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.point_count(), 0u);
}

// ---------------------------------------------------------------------------
// Public-input multi-exponentiation vs single reference multiples
// ---------------------------------------------------------------------------

// Every on-curve shape a decoded point can take: O, the order-2 point
// (0, 0), subgroup points with their negatives, a point of the whole
// group E(F_p), its torsion part q·R, and one point of each small order
// d ∈ {4, 3, 5, 7, ...} dividing #E = p + 1 (a cyclic group), so some
// of a table's small multiples d·T are O.
std::vector<Point> edge_points(const pairing::ParamSet& g, HmacDrbg& rng) {
  const ec::Curve* curve = g.curve;
  const auto& f = curve->field();
  const BigInt group_order = f->modulus() + BigInt(1);
  const Point p = g.mul_g(BigInt::random_unit(rng, g.order()));
  const Point r = ec::hash_to_curve_candidate(curve, "multi_mul", Bytes{9});
  std::vector<Point> out = {curve->infinity(),
                            curve->point(f->zero(), f->zero()),
                            g.generator,
                            -g.generator,
                            p,
                            -p,
                            r,
                            r.mul_affine(g.order())};
  for (const std::uint64_t d : {4, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}) {
    BigInt quot, rem;
    BigInt::divmod(group_order, BigInt(d), quot, rem);
    if (!rem.is_zero()) continue;
    const Point t = r.mul_affine(quot);
    if (!t.is_infinity()) out.push_back(t);
  }
  return out;
}

// Scalars for the Straus digits: zero, ±1, small, negative, 80-bit
// weights, q and multiples past it, and lengths on every window width.
std::vector<BigInt> edge_scalars(const BigInt& q, HmacDrbg& rng) {
  const BigInt w80 = BigInt::random_below(rng, BigInt(1) << 80);
  const BigInt big = BigInt::random_below(rng, BigInt(1) << 300);
  return {BigInt(0), BigInt(1), BigInt(-1), BigInt(2), BigInt(7),
          BigInt(-15), BigInt::random_below(rng, BigInt(1) << 20),
          BigInt::random_below(rng, BigInt(1) << 50), w80, -w80,
          q - BigInt(1), q, q + BigInt(1), q + q + BigInt(5),
          BigInt::random_below(rng, q), big, -big};
}

Point reference_sum(std::span<const Point> points,
                    std::span<const BigInt> scalars) {
  Point acc = points.front().curve()->infinity();
  for (std::size_t j = 0; j < points.size(); ++j) {
    acc += points[j].mul_affine(scalars[j]);
  }
  return acc;
}

class MultiMulDiff : public ::testing::TestWithParam<const char*> {};

TEST_P(MultiMulDiff, MatchesSumOfAffineMultiples) {
  const pairing::ParamSet& g = pairing::named_params(GetParam());
  HmacDrbg rng(9010);
  const std::vector<Point> points = edge_points(g, rng);
  const std::vector<BigInt> scalars = edge_scalars(g.order(), rng);
  ASSERT_GT(points.size(), 8u) << "no point of small order found";

  // Each point alone against each scalar.
  for (const Point& p : points) {
    for (const BigInt& k : scalars) {
      EXPECT_EQ(ec::multi_mul(std::span(&p, 1), std::span(&k, 1)),
                p.mul_affine(k))
          << "k = " << k.to_hex();
    }
  }
  // Random 2..5-term sums drawn from both lists.
  for (std::size_t n = 2; n <= 5; ++n) {
    for (int iter = 0; iter < 12; ++iter) {
      std::vector<Point> ps;
      std::vector<BigInt> ks;
      for (std::size_t j = 0; j < n; ++j) {
        ps.push_back(points[rng.next_u64() % points.size()]);
        ks.push_back(scalars[rng.next_u64() % scalars.size()]);
      }
      EXPECT_EQ(ec::multi_mul(ps, ks), reference_sum(ps, ks));
    }
  }
}

TEST_P(MultiMulDiff, CancellingAndRepeatedTerms) {
  const pairing::ParamSet& g = pairing::named_params(GetParam());
  HmacDrbg rng(9011);
  const BigInt k = BigInt::random_below(rng, BigInt(1) << 80);
  const Point p = g.mul_g(BigInt::random_unit(rng, g.order()));
  // P with −P under one scalar: O.
  const std::vector<Point> opposite = {p, -p};
  const std::vector<BigInt> same = {k, k};
  EXPECT_TRUE(ec::multi_mul(opposite, same).is_infinity());
  // P with itself under k and −k: O; under k and k: (2k)·P.
  const std::vector<Point> twice = {p, p};
  const std::vector<BigInt> k_neg_k = {k, -k};
  EXPECT_TRUE(ec::multi_mul(twice, k_neg_k).is_infinity());
  EXPECT_EQ(ec::multi_mul(twice, same), p.mul_affine(k + k));
  // Every term O or zero: O.
  const std::vector<Point> with_inf = {g.curve->infinity(), p};
  const std::vector<BigInt> k_and_zero = {k, BigInt(0)};
  EXPECT_TRUE(ec::multi_mul(with_inf, k_and_zero).is_infinity());
}

TEST_P(MultiMulDiff, RejectsMismatchedSpans) {
  const pairing::ParamSet& g = pairing::named_params(GetParam());
  const std::vector<Point> one = {g.generator};
  const std::vector<BigInt> two = {BigInt(1), BigInt(2)};
  EXPECT_THROW(ec::multi_mul(one, two), InvalidArgument);
  EXPECT_THROW(ec::multi_mul({}, {}), InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(NamedSets, MultiMulDiff,
                         ::testing::Values("toy64", "sec80"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(ArithDiff, MultiPowMatchesProductOfPows) {
  HmacDrbg rng(9012);
  for (const auto& f : test_fields()) {
    for (std::size_t n = 1; n <= 12; ++n) {
      std::vector<Fp2> bases;
      std::vector<BigInt> exps;
      Fp2 expected = Fp2::one(f);
      for (std::size_t j = 0; j < n; ++j) {
        bases.push_back(Fp2::random(f, rng));
        // 0, 1, then lengths off every window multiple, up to 300 bits.
        const std::size_t bits = j == 0 ? 0 : 1 + rng.next_u64() % 300;
        exps.push_back(j == 1 ? BigInt(1)
                              : BigInt::random_below(rng, BigInt(1) << bits));
        expected *= bases.back().pow(exps.back());
      }
      EXPECT_EQ(field::multi_pow(bases, exps), expected) << "n = " << n;
    }
  }
}

TEST(ArithDiff, MultiPowEdgeExponents) {
  HmacDrbg rng(9013);
  const PrimeField* f = pairing::paper_params().curve->field();
  const Fp2 x = Fp2::random(f, rng);
  const Fp2 y = Fp2::random(f, rng);
  const std::vector<Fp2> bases = {x, y};
  EXPECT_TRUE(field::multi_pow(bases, std::vector<BigInt>{0, 0}).is_one());
  EXPECT_EQ(field::multi_pow(bases, std::vector<BigInt>{1, 0}), x);
  EXPECT_EQ(field::multi_pow(bases, std::vector<BigInt>{1, 1}), x * y);
  // All-ones exponents: every window is full and at the top bit.
  const BigInt ones = (BigInt(1) << 161) - BigInt(1);
  EXPECT_EQ(field::multi_pow(bases, std::vector<BigInt>{ones, ones}),
            x.pow(ones) * y.pow(ones));
  EXPECT_THROW(field::multi_pow(bases, std::vector<BigInt>{1}),
               InvalidArgument);
  EXPECT_THROW(field::multi_pow(bases, std::vector<BigInt>{1, -1}),
               InvalidArgument);
}

}  // namespace
}  // namespace medcrypt

// Tests for elliptic-curve group law, scalar multiplication, compression
// and hash-to-subgroup.
#include <gtest/gtest.h>

#include "common/error.h"
#include "ec/curve.h"
#include "ec/hash_to_point.h"
#include "ec/jacobian.h"
#include "ec/point.h"
#include "hash/drbg.h"
#include "pairing/params.h"

namespace medcrypt::ec {
namespace {

using bigint::BigInt;
using field::PrimeField;
using hash::HmacDrbg;

// Tiny curve with known group structure: y^2 = x^3 + x over F_103
// (103 ≡ 3 mod 4, supersingular, #E = 104 = 8 * 13 → q = 13, h = 8).
const Curve* tiny_curve() {
  auto f = PrimeField::make(BigInt(103));
  return Curve::make(f, BigInt(13), BigInt(8));
}

// Finds any affine point on the tiny curve.
Point some_point(const Curve* c) {
  for (std::uint64_t xv = 1;; ++xv) {
    const auto x = c->field()->from_u64(xv);
    const auto rhs = c->rhs(x);
    if (rhs.is_square() && !rhs.is_zero()) return c->point(x, rhs.sqrt());
  }
}

TEST(Curve, RejectsOtherFamilies) {
  // Only y^2 = x^3 + x over p ≡ 3 (mod 4), where (0, 0) is the one
  // point of order 2 (the ladder's special input).
  auto g = PrimeField::make(BigInt(97));  // 97 ≡ 1 (mod 4)
  EXPECT_THROW(Curve::make(g, BigInt(7), BigInt(14)), InvalidArgument);
}

TEST(Curve, RejectsBadOrderOrCofactor) {
  auto f = PrimeField::make(BigInt(103));
  EXPECT_THROW(Curve::make(f, BigInt(1), BigInt(8)), InvalidArgument);
  EXPECT_THROW(Curve::make(f, BigInt(13), BigInt(0)), InvalidArgument);
}

TEST(Curve, RejectsOffCurvePoint) {
  auto c = tiny_curve();
  auto f = c->field();
  EXPECT_THROW(c->point(f->from_u64(1), f->from_u64(1)), InvalidArgument);
}

TEST(Point, GroupLawBasics) {
  auto c = tiny_curve();
  const Point p = some_point(c);
  const Point inf = c->infinity();

  EXPECT_EQ(p + inf, p);
  EXPECT_EQ(inf + p, p);
  EXPECT_TRUE((p - p).is_infinity());
  EXPECT_EQ(-inf, inf);
  EXPECT_EQ(p.dbl(), p + p);
}

TEST(Point, Associativity) {
  auto c = tiny_curve();
  const Point p = some_point(c);
  const Point q = p.dbl();
  const Point r = q.dbl() + p;
  EXPECT_EQ((p + q) + r, p + (q + r));
}

TEST(Point, Commutativity) {
  auto c = tiny_curve();
  const Point p = some_point(c);
  const Point q = p.dbl() + p;
  EXPECT_EQ(p + q, q + p);
}

TEST(Point, FullGroupOrder) {
  // #E(F_103) = 104 for the supersingular curve: 104*P = O for every P.
  auto c = tiny_curve();
  for (std::uint64_t xv = 0; xv < 103; ++xv) {
    const auto x = c->field()->from_u64(xv);
    const auto rhs = c->rhs(x);
    if (!rhs.is_square()) continue;
    const Point p = c->point(x, rhs.sqrt());
    EXPECT_TRUE(p.mul(BigInt(104)).is_infinity()) << "x = " << xv;
  }
}

TEST(Point, ScalarMulMatchesRepeatedAddition) {
  auto c = tiny_curve();
  const Point p = some_point(c);
  Point acc = c->infinity();
  for (int k = 0; k <= 30; ++k) {
    EXPECT_EQ(p.mul(BigInt(k)), acc) << "k = " << k;
    acc += p;
  }
}

TEST(Point, ScalarMulDistributes) {
  auto c = tiny_curve();
  const Point p = some_point(c);
  EXPECT_EQ(p.mul(BigInt(7)) + p.mul(BigInt(9)), p.mul(BigInt(16)));
  EXPECT_EQ(p.mul(BigInt(5)).mul(BigInt(3)), p.mul(BigInt(15)));
}

TEST(Point, NegativeScalar) {
  auto c = tiny_curve();
  const Point p = some_point(c);
  EXPECT_EQ(p.mul(BigInt(-3)), -(p.mul(BigInt(3))));
  EXPECT_TRUE(p.mul(BigInt(0)).is_infinity());
}

TEST(Point, SubgroupMembership) {
  auto c = tiny_curve();
  const Point p = some_point(c);
  const Point g = p.mul(c->cofactor());
  if (!g.is_infinity()) {
    EXPECT_TRUE(g.in_subgroup());
    EXPECT_TRUE(g.mul(c->order()).is_infinity());
  }
}

TEST(Point, CompressionRoundTrip) {
  auto c = tiny_curve();
  const Point p = some_point(c);
  for (int k = 0; k < 14; ++k) {
    const Point v = p.mul(BigInt(k));
    const Bytes b = v.to_bytes();
    EXPECT_EQ(b.size(), c->compressed_size());
    EXPECT_EQ(c->decompress(b), v) << "k = " << k;
  }
}

TEST(Point, DecompressRejectsGarbage) {
  auto c = tiny_curve();
  EXPECT_THROW(c->decompress(Bytes{0x05, 0x01}), InvalidArgument);
  EXPECT_THROW(c->decompress(Bytes{0x02}), InvalidArgument);
  // x with non-square RHS: x=0 gives rhs=0 (square); try to find non-square x.
  for (std::uint64_t xv = 0; xv < 103; ++xv) {
    const auto x = c->field()->from_u64(xv);
    if (!c->rhs(x).is_square()) {
      Bytes enc{0x02};
      const Bytes xb = x.to_bytes();
      enc.insert(enc.end(), xb.begin(), xb.end());
      EXPECT_THROW(c->decompress(enc), InvalidArgument);
      break;
    }
  }
}

TEST(Point, DecompressRejectsEveryNonResidue) {
  // Exhaustive over F_103: an x whose right-hand side is a non-residue
  // is rejected under both tags; every other x decodes to the root of
  // the requested parity.
  auto c = tiny_curve();
  int rejected = 0;
  for (std::uint64_t xv = 0; xv < 103; ++xv) {
    const auto x = c->field()->from_u64(xv);
    for (const std::uint8_t tag : {0x02, 0x03}) {
      Bytes enc{tag};
      const Bytes xb = x.to_bytes();
      enc.insert(enc.end(), xb.begin(), xb.end());
      if (!c->rhs(x).is_square()) {
        EXPECT_THROW(c->decompress(enc), InvalidArgument) << "x = " << xv;
        ++rejected;
        continue;
      }
      const Point p = c->decompress(enc);
      EXPECT_EQ(p.x(), x);
      EXPECT_TRUE(c->contains(p.x(), p.y()));
      if (!p.y().is_zero()) {
        EXPECT_EQ(p.y().parity(), tag == 0x03);
      }
    }
  }
  // 104 points = O + (0, 0) + 102 others in ± pairs over 51 x values,
  // so 103 - 52 = 51 x values have no point.
  EXPECT_EQ(rejected, 2 * 51);
}

// The order-2 point (0, 0) of y^2 = x^3 + x.
Point order_two_point(const Curve* c) {
  return c->point(c->field()->zero(), c->field()->zero());
}

TEST(Point, InSubgroupMatchesAffineReferenceTinyCurve) {
  // Every point of the tiny curve: the Jacobian identity flag of q·P
  // agrees with converting q·P to affine.
  auto c = tiny_curve();
  int members = 0;
  for (std::uint64_t xv = 0; xv < 103; ++xv) {
    const auto x = c->field()->from_u64(xv);
    const auto y = c->rhs(x).try_sqrt();
    if (!y) continue;
    for (const Point& p : {c->point(x, *y), c->point(x, -*y)}) {
      const bool reference = p.mul(c->order()).is_infinity();
      EXPECT_EQ(p.in_subgroup(), reference) << "x = " << xv;
      if (reference) ++members;
    }
  }
  EXPECT_EQ(members, 12);  // the non-identity points of order 13
}

class InSubgroupDiffTest : public ::testing::TestWithParam<const char*> {};

TEST_P(InSubgroupDiffTest, MatchesAffineReference) {
  const auto& params = pairing::named_params(GetParam());
  const auto& c = params.curve;
  HmacDrbg rng(31);
  const Point t = order_two_point(c);
  std::vector<std::pair<Point, bool>> cases = {
      {c->infinity(), true}, {t, false}, {params.generator, true}};
  for (int i = 0; i < 4; ++i) {
    const Point s = params.mul_g(BigInt::random_unit(rng, params.order()));
    cases.push_back({s, true});
    cases.push_back({s + t, false});
    // A raw hash candidate: a point of E(F_p), outside G1 unless its
    // cofactor part happens to vanish (probability ~1/h).
    cases.push_back({hash_to_curve_candidate(c, "InSubgroup",
                                             str_bytes(std::to_string(i))),
                     false});
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [p, member] = cases[i];
    EXPECT_EQ(p.in_subgroup(), p.mul(c->order()).is_infinity()) << i;
    EXPECT_EQ(p.in_subgroup(), member) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Params, InSubgroupDiffTest,
                         ::testing::Values("toy64", "sec80"));

// The chain test behind Point::in_subgroup (ec::in_subgroup_chain)
// against Z(q·P) = 0 from the ladder over q, on points of all of
// E(F_p): raw hash candidates and random multiples of them, subgroup
// points, points whose order divides g (g = 13 on toy64, where
// x(2^n·P) = x(c·P) admits them; O at sec80, where g = 1), sums of
// these, (0, 0) and O.
class InSubgroupChainTest : public ::testing::TestWithParam<const char*> {};

TEST_P(InSubgroupChainTest, MatchesLadderOverQ) {
  const auto& params = pairing::named_params(GetParam());
  const Curve* c = params.curve;
  const BigInt& q = params.order();
  const BigInt hq = c->cofactor() * q;  // #E(F_p) = p + 1
  const BigInt& g = c->chain().g;
  HmacDrbg rng(41);
  const Point t = order_two_point(c);
  std::vector<Point> pts = {c->infinity(), t, params.generator};
  for (int i = 0; i < 12; ++i) {
    const Point cand =
        hash_to_curve_candidate(c, "Chain", str_bytes(std::to_string(i)));
    const Point s = params.mul_g(BigInt::random_unit(rng, q));
    const Point small = cand.mul(hq / g);  // order divides g
    pts.insert(pts.end(),
               {cand, cand.mul(BigInt::random_below(rng, hq)), cand.mul(q),
                s, s + t, small, small + t, s + small});
  }
  int members = 0, small_order = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Point& p = pts[i];
    const bool member = ladder_mul(p, q).inf;
    EXPECT_EQ(p.in_subgroup(), member) << i;
    EXPECT_EQ(in_subgroup_chain(p), member) << i;
    members += member;
    small_order += !p.is_infinity() && p.mul(g).is_infinity();
  }
  EXPECT_GE(members, 14);  // O, the generator and the 12 s
  EXPECT_LT(members, static_cast<int>(pts.size()) - 12);
  if (g > BigInt(1)) {
    EXPECT_GE(small_order, 6);  // ~12/13 of the 12 `small`
  }
}

INSTANTIATE_TEST_SUITE_P(Params, InSubgroupChainTest,
                         ::testing::Values("toy64", "sec80"));

// Equal parameters give one context, so the only mixed-curve case is
// curves whose parameters differ. These two share the field F_103 (so
// the coordinates themselves mix freely) and differ in (q, h).
TEST(Point, MixedCurveThrows) {
  const Curve* c1 = tiny_curve();
  const Curve* c2 = Curve::make(c1->field(), BigInt(104), BigInt(1));
  ASSERT_NE(c1, c2);
  const Point p1 = some_point(c1);
  const Point p2 = some_point(c2);
  EXPECT_EQ(p1.x(), p2.x());
  EXPECT_THROW(p1 + p2, InvalidArgument);
  EXPECT_FALSE(p1 == p2);
}

// Curve::make interns: one (p, q, h), one context pointer; a different
// q or h gives another.
TEST(Curve, MakeInternsOneContextPerParameterSet) {
  const PrimeField* f = PrimeField::make(BigInt(103));
  const Curve* c = Curve::make(f, BigInt(13), BigInt(8));
  EXPECT_EQ(tiny_curve(), c);
  EXPECT_EQ(Curve::make(PrimeField::make(BigInt(103)), BigInt(13), BigInt(8)),
            c);
  EXPECT_EQ(c->field(), f);
  const Curve* other_q = Curve::make(f, BigInt(26), BigInt(8));
  const Curve* other_h = Curve::make(f, BigInt(13), BigInt(4));
  EXPECT_NE(other_q, c);
  EXPECT_NE(other_h, c);
  EXPECT_NE(other_q, other_h);
  EXPECT_EQ(Curve::make(f, BigInt(26), BigInt(8)), other_q);
  EXPECT_EQ(other_q->order(), BigInt(26));
  EXPECT_EQ(other_h->cofactor(), BigInt(4));
  const Curve* other_p =
      Curve::make(PrimeField::make(BigInt(107)), BigInt(13), BigInt(8));
  EXPECT_NE(other_p, c);
  // Points of one interned curve compare equal whichever call made them.
  EXPECT_EQ(some_point(c), some_point(tiny_curve()));
}

TEST(HashToPoint, LandsInSubgroup) {
  const auto& params = pairing::toy_params();
  for (const char* id : {"alice@example.com", "bob@example.com", "x", ""}) {
    const Point p = hash_to_subgroup(params.curve, "H1", str_bytes(id));
    EXPECT_FALSE(p.is_infinity());
    EXPECT_TRUE(p.in_subgroup());
  }
}

TEST(HashToPoint, DeterministicAndInjectiveish) {
  const auto& params = pairing::toy_params();
  const Point a1 = hash_to_subgroup(params.curve, "H1", str_bytes("alice"));
  const Point a2 = hash_to_subgroup(params.curve, "H1", str_bytes("alice"));
  const Point b = hash_to_subgroup(params.curve, "H1", str_bytes("bob"));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

TEST(HashToPoint, DomainSeparation) {
  const auto& params = pairing::toy_params();
  const Point a = hash_to_subgroup(params.curve, "H1", str_bytes("alice"));
  const Point b = hash_to_subgroup(params.curve, "GDH", str_bytes("alice"));
  EXPECT_NE(a, b);
}

TEST(Jacobian, MulMatchesAffineReferenceTinyCurve) {
  // Exhaustive cross-check on the order-13 subgroup (hits the doubling
  // and cancellation corner cases of the Jacobian ladder).
  auto c = tiny_curve();
  Point p;
  for (std::uint64_t xv = 1; xv < 103; ++xv) {
    const auto x = c->field()->from_u64(xv);
    const auto rhs = c->rhs(x);
    if (!rhs.is_square() || rhs.is_zero()) continue;
    p = c->point(x, rhs.sqrt()).mul_affine(c->cofactor());
    if (!p.is_infinity()) break;
  }
  ASSERT_FALSE(p.is_infinity()) << "no order-13 point found";
  for (int k = -15; k <= 30; ++k) {
    EXPECT_EQ(p.mul(BigInt(k)), p.mul_affine(BigInt(k))) << "k = " << k;
  }
}

TEST(Jacobian, MulMatchesAffineReferenceBigCurve) {
  const auto& params = pairing::toy_params();
  HmacDrbg rng(36);
  for (int i = 0; i < 10; ++i) {
    const BigInt k = BigInt::random_below(rng, params.order());
    EXPECT_EQ(params.generator.mul(k), params.generator.mul_affine(k));
  }
}

// Every point of the tiny curve: O, (0, 0) and the 102 others.
std::vector<Point> all_points(const Curve* c) {
  std::vector<Point> pts = {c->infinity()};
  for (std::uint64_t xv = 0; xv < 103; ++xv) {
    const auto x = c->field()->from_u64(xv);
    const auto y = c->rhs(x).try_sqrt();
    if (!y) continue;
    pts.push_back(c->point(x, *y));
    if (!y->is_zero()) pts.push_back(c->point(x, -*y));
  }
  return pts;
}

TEST(Ladder, MatchesAffineOnEveryPointOfTinyCurve) {
  // Every point (orders 1, 2, 4, 8, 13, 26, 52, 104) and every k in
  // [-2·#E, 2·#E]: hits kP = O, (k+1)P = O, kP = (0, 0) and the
  // 2-torsion special case.
  auto c = tiny_curve();
  const std::vector<Point> pts = all_points(c);
  ASSERT_EQ(pts.size(), 104u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Point& p = pts[i];
    for (int k = -208; k <= 208; ++k) {
      const Point want = p.mul_affine(BigInt(k));
      ASSERT_EQ(jac_to_affine(c, ladder_mul(p, BigInt(k))), want)
          << "point " << i << ", k = " << k;
    }
    EXPECT_EQ(p.in_subgroup(), p.mul_affine(c->order()).is_infinity()) << i;
  }
}

TEST(Ladder, RejectsDefaultPoint) {
  EXPECT_THROW(ladder_mul(Point{}, BigInt(3)), InvalidArgument);
  EXPECT_THROW(Point{}.in_subgroup(), InvalidArgument);
}

class LadderDiffTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LadderDiffTest, MatchesAffineReference) {
  const auto& params = pairing::named_params(GetParam());
  const auto& c = params.curve;
  const BigInt& q = params.order();
  const BigInt& h = c->cofactor();
  HmacDrbg rng(37);
  const BigInt r = BigInt::random_below(rng, q);
  const std::vector<BigInt> scalars = {
      BigInt(0), BigInt(1), BigInt(2), q - BigInt(1), q, q + BigInt(1), h,
      r, q + r, h * q, BigInt::random_bits(rng, c->field()->modulus()
                                                    .bit_length() + 70),
      -BigInt(1), -r, -(q + BigInt(1))};
  const Point t = order_two_point(c);
  // G1 points, a raw candidate of full order in E(F_p) (cofactor part
  // and all), its sum with (0, 0), and (0, 0) itself.
  const Point cand = hash_to_curve_candidate(c, "Ladder", str_bytes("c"));
  const std::vector<Point> bases = {params.generator,
                                    params.mul_g(r), cand, cand + t, t};
  for (std::size_t b = 0; b < bases.size(); ++b) {
    const Point& p = bases[b];
    for (std::size_t i = 0; i < scalars.size(); ++i) {
      EXPECT_EQ(p.mul(scalars[i]), p.mul_affine(scalars[i]))
          << "base " << b << ", k " << i;
    }
    EXPECT_EQ(p.in_subgroup(), p.mul_affine(q).is_infinity()) << b;
  }
  // Cofactor clearing of the raw candidate is the hash's output.
  EXPECT_EQ(cand.mul(h), hash_to_subgroup(c, "Ladder", str_bytes("c")));
}

INSTANTIATE_TEST_SUITE_P(Params, LadderDiffTest,
                         ::testing::Values("toy64", "sec80"));

TEST(Jacobian, RoundTripThroughCoordinates) {
  const auto& params = pairing::toy_params();
  const Point p = params.generator;
  const JacPoint j = jac_from_affine(p);
  EXPECT_EQ(jac_to_affine(params.curve, j), p);
  EXPECT_TRUE(jac_to_affine(params.curve, JacPoint{}).is_infinity());
}

TEST(Jacobian, DblAddConsistency) {
  const auto& params = pairing::toy_params();
  const Point p = params.generator;
  JacPoint acc = jac_from_affine(p);
  acc = jac_dbl(acc);             // 2P
  acc = jac_add_mixed(acc, p);    // 3P
  EXPECT_EQ(jac_to_affine(params.curve, acc), p.mul_affine(BigInt(3)));
}

TEST(Jacobian, AddInverseYieldsInfinity) {
  const auto& params = pairing::toy_params();
  const Point p = params.generator;
  JacPoint t = jac_from_affine(p);
  AddTrace trace;
  const JacPoint sum = jac_add_mixed(t, -p, &trace);
  EXPECT_TRUE(sum.inf);
  EXPECT_TRUE(trace.vertical);
}

TEST(NamedParams, Toy64Consistency) {
  const auto& params = pairing::named_params("toy64");
  const BigInt& p = params.curve->field()->modulus();
  const BigInt& q = params.order();
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_EQ(q.bit_length(), 64u);
  EXPECT_EQ((p % BigInt(4)).to_dec(), "3");
  EXPECT_EQ((p + BigInt(1)) % q, BigInt(0));
  EXPECT_FALSE(params.generator.is_infinity());
  EXPECT_TRUE(params.generator.in_subgroup());
}

TEST(NamedParams, UnknownNameThrows) {
  EXPECT_THROW(pairing::named_params("nope"), InvalidArgument);
}

TEST(NamedParams, CachedInstanceIsStable) {
  const auto& a = pairing::named_params("toy64");
  const auto& b = pairing::named_params("toy64");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.generator, b.generator);
}

}  // namespace
}  // namespace medcrypt::ec

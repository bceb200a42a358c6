// Tests for the GDH (BLS) signature: correctness, unforgeability smoke
// checks, key splitting for the mediated variant, signature size, and
// equivalence of the cofactor-free verifier with the standard equation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gdh/bls.h"
#include "hash/drbg.h"
#include "pairing/params.h"
#include "pairing/tate.h"

namespace medcrypt::gdh {
namespace {

using bigint::BigInt;
using hash::HmacDrbg;

class GdhTest : public ::testing::Test {
 protected:
  GdhTest() : rng_(95), group_(pairing::toy_params()) {}

  HmacDrbg rng_;
  const pairing::ParamSet& group_;
};

TEST_F(GdhTest, SignVerifyRoundTrip) {
  const KeyPair kp = keygen(group_, rng_);
  const Bytes msg = str_bytes("transfer 100 to bob");
  const Point sig = sign(group_, kp.secret, msg);
  EXPECT_TRUE(verify(group_, kp.pub, msg, sig));
}

TEST_F(GdhTest, VerifyRejectsWrongMessage) {
  const KeyPair kp = keygen(group_, rng_);
  const Point sig = sign(group_, kp.secret, str_bytes("msg A"));
  EXPECT_FALSE(verify(group_, kp.pub, str_bytes("msg B"), sig));
}

TEST_F(GdhTest, VerifyRejectsWrongKey) {
  const KeyPair kp1 = keygen(group_, rng_);
  const KeyPair kp2 = keygen(group_, rng_);
  const Bytes msg = str_bytes("msg");
  EXPECT_FALSE(verify(group_, kp2.pub, msg, sign(group_, kp1.secret, msg)));
}

TEST_F(GdhTest, VerifyRejectsTamperedSignature) {
  const KeyPair kp = keygen(group_, rng_);
  const Bytes msg = str_bytes("msg");
  const Point sig = sign(group_, kp.secret, msg);
  EXPECT_FALSE(verify(group_, kp.pub, msg, sig + group_.generator));
  EXPECT_FALSE(verify(group_, kp.pub, msg, -sig));
  EXPECT_FALSE(verify(group_, kp.pub, msg, group_.curve->infinity()));
}

TEST_F(GdhTest, SignatureIsDeterministic) {
  const KeyPair kp = keygen(group_, rng_);
  const Bytes msg = str_bytes("msg");
  EXPECT_EQ(sign(group_, kp.secret, msg), sign(group_, kp.secret, msg));
}

TEST_F(GdhTest, SignatureIsOneCompressedPoint) {
  // The headline size claim: a GDH signature is one G1 element —
  // ~|p| bits with point compression (vs 1024-bit RSA).
  const KeyPair kp = keygen(group_, rng_);
  const Point sig = sign(group_, kp.secret, str_bytes("m"));
  EXPECT_EQ(sig.to_bytes().size(), group_.curve->compressed_size());
}

TEST_F(GdhTest, SplitKeyRecombines) {
  const KeyPair kp = keygen(group_, rng_);
  const auto [x_user, x_sem] = split_key(kp.secret, group_.order(), rng_);
  EXPECT_EQ(x_user.add_mod(x_sem, group_.order()), kp.secret);

  // Half-signatures add to the full signature (the §5 protocol).
  const Bytes msg = str_bytes("pay");
  const Point h = hash_message(group_, msg);
  const Point full = h.mul(x_user) + h.mul(x_sem);
  EXPECT_EQ(full, sign(group_, kp.secret, msg));
  EXPECT_TRUE(verify(group_, kp.pub, msg, full));
}

TEST_F(GdhTest, HalfSignatureDoesNotVerify) {
  const KeyPair kp = keygen(group_, rng_);
  const auto [x_user, x_sem] = split_key(kp.secret, group_.order(), rng_);
  const Bytes msg = str_bytes("pay");
  const Point h = hash_message(group_, msg);
  EXPECT_FALSE(verify(group_, kp.pub, msg, h.mul(x_user)));
  EXPECT_FALSE(verify(group_, kp.pub, msg, h.mul(x_sem)));
}

TEST_F(GdhTest, HashMessageInSubgroup) {
  for (const char* m : {"a", "b", "hello world", ""}) {
    const Point h = hash_message(group_, str_bytes(m));
    EXPECT_FALSE(h.is_infinity());
    EXPECT_TRUE(h.in_subgroup());
  }
}

TEST_F(GdhTest, AggregationProperty) {
  // BLS linearity: sig(x1+x2, m) = sig(x1, m) + sig(x2, m) — the algebra
  // behind both the threshold and the mediated variants.
  const KeyPair a = keygen(group_, rng_);
  const KeyPair b = keygen(group_, rng_);
  const Bytes msg = str_bytes("joint");
  const Point joint_sig =
      sign(group_, a.secret, msg) + sign(group_, b.secret, msg);
  const Point joint_pub = a.pub + b.pub;
  EXPECT_TRUE(verify(group_, joint_pub, msg, joint_sig));
}

// The verifier before the cofactor-free form, kept as the oracle: the
// G1 check on σ, then two full pairings against the cleared h(M).
bool oracle_verify(const pairing::ParamSet& group, const Point& pub,
                   BytesView message, const Point& signature) {
  if (signature.is_infinity() || !signature.in_subgroup()) return false;
  const pairing::TatePairing pairing(group.curve);
  return pairing.pair(group.generator, signature) ==
         pairing.pair(pub, hash_message(group, message));
}

// The order-2 point (0, 0) of y^2 = x^3 + x: outside G1, and invisible
// to the pairing (ê(·, T) = 1 for T of order dividing the cofactor).
Point order_two_point(const pairing::ParamSet& group) {
  const auto& field = group.curve->field();
  return group.curve->point(field->zero(), field->zero());
}

class GdhEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GdhEquivalenceTest, InvCofactorGeneratorTimesCofactorIsGenerator) {
  const auto& group = pairing::named_params(GetParam());
  EXPECT_TRUE(group.inv_cofactor_generator.in_subgroup());
  EXPECT_EQ(group.inv_cofactor_generator.mul(group.curve->cofactor()),
            group.generator);
}

TEST_P(GdhEquivalenceTest, AgreesWithClearedHashOracle) {
  const auto& group = pairing::named_params(GetParam());
  HmacDrbg rng(131);
  const KeyPair kp = keygen(group, rng);
  const KeyPair other = keygen(group, rng);
  const Point t = order_two_point(group);

  struct Case {
    std::string name;
    Point pub;
    Bytes message;
    Point signature;
    bool valid;
  };
  for (const std::string m : {"", "pay 10 to bob", "cofactor-free"}) {
    const Bytes msg = str_bytes(m);
    const Point sig = sign(group, kp.secret, msg);
    const Case cases[] = {
        {"honest", kp.pub, msg, sig, true},
        {"another message", kp.pub, str_bytes(m + "!"), sig, false},
        {"another key", other.pub, msg, sig, false},
        {"signed by another key", kp.pub, msg, sign(group, other.secret, msg),
         false},
        {"identity", kp.pub, msg, group.curve->infinity(), false},
        {"sigma + (0,0)", kp.pub, msg, sig + t, false},
        {"(0,0)", kp.pub, msg, t, false},
        {"negated", kp.pub, msg, -sig, false},
        {"random G1 point", kp.pub, msg,
         group.mul_g(BigInt::random_unit(rng, group.order())), false},
        {"random curve point", kp.pub, msg,
         hash_candidate(group, str_bytes("random " + m)), false},
    };
    for (const Case& c : cases) {
      const bool fast = verify(group, c.pub, c.message, c.signature);
      EXPECT_EQ(fast, oracle_verify(group, c.pub, c.message, c.signature))
          << c.name << " on \"" << m << "\"";
      EXPECT_EQ(fast, c.valid) << c.name << " on \"" << m << "\"";
      EXPECT_EQ(verify_prehashed(group, c.pub, hash_message(group, c.message),
                                 c.signature),
                c.valid)
          << c.name << " (prehashed) on \"" << m << "\"";
    }
  }
}

TEST_P(GdhEquivalenceTest, CandidateTimesCofactorIsTheMessageHash) {
  const auto& group = pairing::named_params(GetParam());
  for (const char* m : {"", "a", "hello world"}) {
    const Point candidate = hash_candidate(group, str_bytes(m));
    EXPECT_FALSE(candidate.in_subgroup()) << m;
    EXPECT_EQ(candidate.mul(group.curve->cofactor()),
              hash_message(group, str_bytes(m)))
        << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Params, GdhEquivalenceTest,
                         ::testing::Values("toy64", "sec80"));

TEST_F(GdhTest, VerifyNeverThrowsOnRandomMessages) {
  // 10k seeded random messages of random length: every raw candidate
  // lands in a Miller loop without a degenerate line, and only the
  // messages actually signed verify.
  const KeyPair kp = keygen(group_, rng_);
  const Point foreign = sign(group_, kp.secret, str_bytes("foreign"));
  int accepted = 0;
  for (int i = 0; i < 10000; ++i) {
    Bytes msg(rng_.next_u64() % 65);
    rng_.fill(msg);
    const bool honest = i % 100 == 0;
    const Point sig = honest ? sign(group_, kp.secret, msg) : foreign;
    bool ok = false;
    ASSERT_NO_THROW(ok = verify(group_, kp.pub, msg, sig)) << "message " << i;
    EXPECT_EQ(ok, honest) << "message " << i;
    accepted += ok ? 1 : 0;
  }
  EXPECT_EQ(accepted, 100);
}

}  // namespace
}  // namespace medcrypt::gdh

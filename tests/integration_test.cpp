// End-to-end integration tests wiring multiple modules together:
// a complete SEM deployment serving IBE decryption + GDH signing with
// shared revocation, ciphertext transport over byte serialization,
// threshold decryption as a backup path, and a paper-parameter (sec80)
// smoke test.
#include <gtest/gtest.h>

#include "common/error.h"
#include "hash/drbg.h"
#include "mediated/ib_mrsa.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"
#include "threshold/threshold_ibe.h"

namespace medcrypt {
namespace {

using hash::HmacDrbg;

TEST(Integration, FullSemDeploymentLifecycle) {
  HmacDrbg rng(170);
  // --- infrastructure ---
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator ibe_sem(pkg.params(), revocations);
  mediated::GdhMediator gdh_sem(pairing::toy_params(), revocations);

  // --- enrollment ---
  auto alice = enroll_ibe_user(pkg, ibe_sem, "alice@corp", rng);
  auto bob = enroll_ibe_user(pkg, ibe_sem, "bob@corp", rng);
  auto alice_signer =
      enroll_gdh_user(pairing::toy_params(), gdh_sem, "alice@corp", rng);

  // --- normal operation ---
  Bytes m(32);
  rng.fill(m);
  const auto to_alice = ibe::full_encrypt(pkg.params(), "alice@corp", m, rng);
  EXPECT_EQ(alice.decrypt(to_alice, ibe_sem), m);

  const Bytes contract = str_bytes("I, alice, approve release 1.0");
  const auto sig = alice_signer.sign(contract, gdh_sem);
  EXPECT_TRUE(
      gdh::verify(pairing::toy_params(), alice_signer.public_key(), contract, sig));

  // --- compromise: one call revokes every capability ---
  revocations->revoke("alice@corp");
  EXPECT_THROW(alice.decrypt(to_alice, ibe_sem), RevokedError);
  EXPECT_THROW(alice_signer.sign(contract, gdh_sem), RevokedError);

  // Bob is unaffected.
  const auto to_bob = ibe::full_encrypt(pkg.params(), "bob@corp", m, rng);
  EXPECT_EQ(bob.decrypt(to_bob, ibe_sem), m);

  // Audit trail adds up.
  EXPECT_EQ(ibe_sem.stats().tokens_issued + ibe_sem.stats().denials, 3u);
}

TEST(Integration, CiphertextSurvivesWireSerialization) {
  HmacDrbg rng(171);
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator sem(pkg.params(), revocations);
  auto alice = enroll_ibe_user(pkg, sem, "alice", rng);

  Bytes m(32);
  rng.fill(m);
  const auto ct = ibe::full_encrypt(pkg.params(), "alice", m, rng);

  // Sender -> wire -> receiver.
  const Bytes wire = ct.to_bytes();
  const auto received = ibe::FullCiphertext::from_bytes(pkg.params(), wire);
  EXPECT_EQ(alice.decrypt(received, sem), m);
}

TEST(Integration, ThresholdSemHybrid) {
  // An organization that runs BOTH architectures off one master secret:
  // the threshold dealer's full key doubles as the mediated split source.
  HmacDrbg rng(172);
  threshold::ThresholdDealer dealer(pairing::toy_params(), 32, 2, 3, rng);
  const auto& params = dealer.setup().params;

  Bytes m(32);
  rng.fill(m);
  const auto ct = ibe::full_encrypt(params, "alice", m, rng);

  // Path 1: threshold decryption by servers 1 and 3.
  const auto keys = dealer.extract_shares("alice");
  std::vector<threshold::DecryptionShare> shares = {
      threshold::compute_decryption_share(dealer.setup(), keys[0], ct.u, false, rng),
      threshold::compute_decryption_share(dealer.setup(), keys[2], ct.u, false, rng)};
  EXPECT_EQ(threshold::threshold_full_decrypt(dealer.setup(), shares, ct), m);

  // Path 2: the same identity served by a SEM split of the full key.
  const auto d_full = dealer.extract_full_key("alice");
  const auto d_user = params.generator().mul(
      bigint::BigInt::random_unit(rng, params.order()));
  const auto d_sem = d_full - d_user;

  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator sem(params, revocations);
  sem.install_key("alice", d_sem);
  mediated::MediatedIbeUser alice(params, "alice", d_user);
  EXPECT_EQ(alice.decrypt(ct, sem), m);
}

TEST(Integration, CrossSchemeCiphertextsDontInterfere) {
  HmacDrbg rng(173);
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator sem(pkg.params(), revocations);
  auto alice = enroll_ibe_user(pkg, sem, "alice", rng);
  auto bob = enroll_ibe_user(pkg, sem, "bob", rng);

  Bytes m_a(32), m_b(32);
  rng.fill(m_a);
  rng.fill(m_b);
  const auto ct_a = ibe::full_encrypt(pkg.params(), "alice", m_a, rng);
  const auto ct_b = ibe::full_encrypt(pkg.params(), "bob", m_b, rng);

  EXPECT_EQ(alice.decrypt(ct_a, sem), m_a);
  EXPECT_EQ(bob.decrypt(ct_b, sem), m_b);
  EXPECT_THROW(alice.decrypt(ct_b, sem), DecryptionError);
  EXPECT_THROW(bob.decrypt(ct_a, sem), DecryptionError);
}

TEST(Integration, PaperParametersSmokeTest) {
  // One full mediated round trip at the paper's 512-bit setting.
  HmacDrbg rng(174);
  ibe::Pkg pkg(pairing::paper_params(), 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator sem(pkg.params(), revocations);
  auto alice = enroll_ibe_user(pkg, sem, "alice@example.com", rng);

  Bytes m(32);
  rng.fill(m);
  const auto ct = ibe::full_encrypt(pkg.params(), "alice@example.com", m, rng);
  sim::Transport transport;
  EXPECT_EQ(alice.decrypt(ct, sem, &transport), m);

  // The paper's size claims at sec80:
  //  - SEM -> user token "about 1000 bits" uncompressed; compressed
  //    (field::gt_to_bytes) it is one 512-bit field element.
  EXPECT_EQ(transport.stats().to_client.bytes, 64u);
  //  - private key halves are single compressed points (512 bits + tag
  //    with compression, vs 1024-bit RSA halves).
  EXPECT_EQ(pkg.extract("alice@example.com").to_bytes().size(), 65u);

  revocations->revoke("alice@example.com");
  EXPECT_THROW(alice.decrypt(ct, sem), RevokedError);
}

TEST(Integration, ManyUsersStress) {
  HmacDrbg rng(175);
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator sem(pkg.params(), revocations);

  std::vector<mediated::MediatedIbeUser> users;
  constexpr int kUsers = 25;
  for (int i = 0; i < kUsers; ++i) {
    users.push_back(enroll_ibe_user(pkg, sem, "user" + std::to_string(i), rng));
  }
  // Every user decrypts their own mail; every third user gets revoked.
  for (int i = 0; i < kUsers; ++i) {
    Bytes m(32);
    rng.fill(m);
    const auto ct =
        ibe::full_encrypt(pkg.params(), "user" + std::to_string(i), m, rng);
    if (i % 3 == 0) {
      revocations->revoke("user" + std::to_string(i));
      EXPECT_THROW(users[i].decrypt(ct, sem), RevokedError);
    } else {
      EXPECT_EQ(users[i].decrypt(ct, sem), m);
    }
  }
  EXPECT_EQ(revocations->size(), static_cast<std::size_t>((kUsers + 2) / 3));
}

}  // namespace
}  // namespace medcrypt

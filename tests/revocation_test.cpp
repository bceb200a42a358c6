// Tests for the two revocation architectures: instant SEM revocation vs
// the validity-period baseline (PKG re-issuance), including the latency
// and PKG-load asymmetries the paper claims.
#include <gtest/gtest.h>

#include "common/error.h"
#include "hash/drbg.h"
#include "ibe/boneh_franklin.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"
#include "revocation/validity_period.h"

namespace medcrypt::revocation {
namespace {

using hash::HmacDrbg;

TEST(RevocationList, SizeTracksEntries) {
  mediated::RevocationList list;
  list.revoke("a");
  list.revoke("b");
  list.revoke("a");  // idempotent
  EXPECT_EQ(list.size(), 2u);
  list.unrevoke("a");
  EXPECT_EQ(list.size(), 1u);
}

class ValidityPeriodTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kPeriod = 1'000'000'000;  // 1 virtual second

  ValidityPeriodTest()
      : rng_(150), pkg_(pairing::toy_params(), 32, kPeriod, rng_) {}

  HmacDrbg rng_;
  ValidityPeriodPkg pkg_;
};

TEST_F(ValidityPeriodTest, QualifiedIdentities) {
  EXPECT_EQ(ValidityPeriodPkg::qualified_identity("alice", 7), "alice|7");
  EXPECT_EQ(pkg_.period_at(0), 0u);
  EXPECT_EQ(pkg_.period_at(kPeriod - 1), 0u);
  EXPECT_EQ(pkg_.period_at(kPeriod), 1u);
  EXPECT_EQ(pkg_.period_at(5 * kPeriod + 3), 5u);
}

TEST_F(ValidityPeriodTest, PeriodKeysDecryptOnlyTheirPeriod) {
  pkg_.enroll("alice");
  HmacDrbg rng(151);
  Bytes m(32);
  rng.fill(m);

  const auto key_p0 = pkg_.extract_for_period("alice", 0);
  const auto ct_p0 = ibe::full_encrypt(
      pkg_.params(), ValidityPeriodPkg::qualified_identity("alice", 0), m, rng);
  const auto ct_p1 = ibe::full_encrypt(
      pkg_.params(), ValidityPeriodPkg::qualified_identity("alice", 1), m, rng);

  EXPECT_EQ(ibe::full_decrypt(pkg_.params(), key_p0, ct_p0), m);
  EXPECT_THROW(ibe::full_decrypt(pkg_.params(), key_p0, ct_p1),
               DecryptionError);
}

TEST_F(ValidityPeriodTest, RevocationWaitsForPeriodBoundary) {
  pkg_.enroll("alice");
  // Revoke mid-period: effect latency is the remaining time to boundary.
  const std::uint64_t now = kPeriod / 4;
  pkg_.revoke("alice", now);
  ASSERT_EQ(pkg_.effect_latencies_ns().size(), 1u);
  EXPECT_EQ(pkg_.effect_latencies_ns()[0], kPeriod - now);
  // After revocation, extraction is denied (the PKG stops issuing).
  EXPECT_THROW(pkg_.extract_for_period("alice", 1), RevokedError);
}

TEST_F(ValidityPeriodTest, ReissueLoadScalesWithUsers) {
  for (int i = 0; i < 20; ++i) pkg_.enroll("user" + std::to_string(i));
  EXPECT_EQ(pkg_.reissue_all(0), 20u);
  pkg_.revoke("user3", kPeriod / 2);
  pkg_.revoke("user7", kPeriod / 2);
  EXPECT_EQ(pkg_.reissue_all(1), 18u);
  EXPECT_EQ(pkg_.keys_issued(), 38u);
}

TEST_F(ValidityPeriodTest, UnknownIdentityRejected) {
  EXPECT_THROW(pkg_.extract_for_period("ghost", 0), InvalidArgument);
}

TEST_F(ValidityPeriodTest, RejectsZeroPeriod) {
  HmacDrbg rng(152);
  EXPECT_THROW(ValidityPeriodPkg(pairing::toy_params(), 32, 0, rng),
               InvalidArgument);
}

TEST(RevocationComparison, SemBeatsValidityPeriodOnLatencyAndLoad) {
  // A miniature version of experiment F2: N users, one revocation per
  // period, D periods. The SEM architecture issues N keys total and
  // revokes with zero latency; the validity-period PKG re-issues every
  // period and revokes with latency up to a full period.
  constexpr std::uint64_t kPeriod = 1'000'000;
  constexpr int kUsers = 10, kPeriods = 5;
  HmacDrbg rng(153);

  // --- validity-period side ---
  ValidityPeriodPkg vp(pairing::toy_params(), 32, kPeriod, rng);
  for (int i = 0; i < kUsers; ++i) vp.enroll("u" + std::to_string(i));
  for (int p = 0; p < kPeriods; ++p) {
    vp.reissue_all(p);
    vp.revoke("u" + std::to_string(p), p * kPeriod + kPeriod / 2);
  }

  // --- SEM side ---
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  auto list = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator sem(pkg.params(), list);
  std::uint64_t sem_keys_issued = 0;
  for (int i = 0; i < kUsers; ++i) {
    (void)enroll_ibe_user(pkg, sem, "u" + std::to_string(i), rng);
    ++sem_keys_issued;  // once, ever
  }
  // Time-to-revoke: SEM = 0, the very next token request after a revoke
  // is denied.
  for (int p = 0; p < kPeriods; ++p) {
    const std::string id = "u" + std::to_string(p);
    const auto ct = ibe::full_encrypt(pkg.params(), id, Bytes(32, 0), rng);
    list->revoke(id);
    EXPECT_THROW((void)sem.issue_token(id, ct.u), RevokedError);
  }

  // PKG load: SEM = N; validity-period ≈ N * periods (minus revoked).
  EXPECT_EQ(sem_keys_issued, static_cast<std::uint64_t>(kUsers));
  EXPECT_GT(vp.keys_issued(), sem_keys_issued * (kPeriods - 2));

  // Time-to-revoke: validity-period = half a period here.
  for (auto lat : vp.effect_latencies_ns()) EXPECT_EQ(lat, kPeriod / 2);
}

}  // namespace
}  // namespace medcrypt::revocation

// Tests for the Boneh–Franklin IBE (BasicIdent and FullIdent) and the PKG:
// round trips, wrong-identity failures, FO validity checks, malleability
// of BasicIdent (a documented non-property), serialization, and byte
// identity of cached-g_ID encryption against a pairing oracle.
#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <string>
#include <utility>

#include "common/error.h"
#include "hash/drbg.h"
#include "hash/kdf.h"
#include "ibe/boneh_franklin.h"
#include "ibe/pkg.h"
#include "obs/registry.h"
#include "pairing/params.h"
#include "pairing/prepared_cache.h"

namespace medcrypt::ibe {
namespace {

using hash::HmacDrbg;

class IbeTest : public ::testing::Test {
 protected:
  IbeTest() : rng_(90), pkg_(pairing::toy_params(), 32, rng_) {}

  Bytes random_message() {
    Bytes m(pkg_.params().message_len);
    rng_.fill(m);
    return m;
  }

  HmacDrbg rng_;
  Pkg pkg_;
};

TEST_F(IbeTest, PkgParamsConsistent) {
  const SystemParams& p = pkg_.params();
  EXPECT_EQ(p.p_pub, p.generator().mul(pkg_.master_key()));
  EXPECT_FALSE(p.p_pub.is_infinity());
}

TEST_F(IbeTest, ExtractIsDeterministicAndIdentityBound) {
  EXPECT_EQ(pkg_.extract("alice"), pkg_.extract("alice"));
  EXPECT_NE(pkg_.extract("alice"), pkg_.extract("bob"));
}

TEST_F(IbeTest, ExtractedKeyMatchesDefinition) {
  const Point q_id = map_identity(pkg_.params(), "alice");
  EXPECT_EQ(pkg_.extract("alice"), q_id.mul(pkg_.master_key()));
}

TEST_F(IbeTest, BasicRoundTrip) {
  const Bytes m = random_message();
  const auto ct = basic_encrypt(pkg_.params(), "alice", m, rng_);
  EXPECT_EQ(basic_decrypt(pkg_.params(), pkg_.extract("alice"), ct), m);
}

TEST_F(IbeTest, BasicWrongIdentityGivesGarbage) {
  const Bytes m = random_message();
  const auto ct = basic_encrypt(pkg_.params(), "alice", m, rng_);
  EXPECT_NE(basic_decrypt(pkg_.params(), pkg_.extract("bob"), ct), m);
}

TEST_F(IbeTest, BasicIsRandomized) {
  const Bytes m = random_message();
  const auto c1 = basic_encrypt(pkg_.params(), "alice", m, rng_);
  const auto c2 = basic_encrypt(pkg_.params(), "alice", m, rng_);
  EXPECT_NE(c1.to_bytes(), c2.to_bytes());
}

TEST_F(IbeTest, BasicIsMalleable) {
  // Documented CPA-only property (paper §3.3: "This scheme is malleable"):
  // flipping a bit of V flips the same bit of the plaintext.
  const Bytes m = random_message();
  auto ct = basic_encrypt(pkg_.params(), "alice", m, rng_);
  ct.v[0] ^= 0x01;
  Bytes expected = m;
  expected[0] ^= 0x01;
  EXPECT_EQ(basic_decrypt(pkg_.params(), pkg_.extract("alice"), ct), expected);
}

TEST_F(IbeTest, BasicRejectsWrongSizeMessage) {
  EXPECT_THROW(basic_encrypt(pkg_.params(), "alice", Bytes(5, 0), rng_),
               InvalidArgument);
}

TEST_F(IbeTest, FullRoundTrip) {
  const Bytes m = random_message();
  const auto ct = full_encrypt(pkg_.params(), "alice", m, rng_);
  EXPECT_EQ(full_decrypt(pkg_.params(), pkg_.extract("alice"), ct), m);
}

TEST_F(IbeTest, FullRejectsReplacedU) {
  const Bytes m = random_message();
  auto ct = full_encrypt(pkg_.params(), "alice", m, rng_);
  ct.u = pkg_.params().generator().mul(BigInt(12345));
  EXPECT_THROW(full_decrypt(pkg_.params(), pkg_.extract("alice"), ct),
               DecryptionError);
}

TEST_F(IbeTest, FullWrongIdentityRejects) {
  const Bytes m = random_message();
  const auto ct = full_encrypt(pkg_.params(), "alice", m, rng_);
  EXPECT_THROW(full_decrypt(pkg_.params(), pkg_.extract("bob"), ct),
               DecryptionError);
}

// The BF-typed aliases over the shared core codecs; the malformed-input
// cases for both schemes are in HashedElGamalCoreTest.
TEST_F(IbeTest, BasicSerializationRoundTrip) {
  const Bytes m = random_message();
  const auto ct = basic_encrypt(pkg_.params(), "alice", m, rng_);
  const auto ct2 = BasicCiphertext::from_bytes(pkg_.params(), ct.to_bytes());
  EXPECT_EQ(ct2.u, ct.u);
  EXPECT_EQ(ct2.v, ct.v);
  EXPECT_THROW(BasicCiphertext::from_bytes(pkg_.params(), Bytes(3, 0)),
               InvalidArgument);
}

TEST_F(IbeTest, FullSerializationRoundTrip) {
  const Bytes m = random_message();
  const auto ct = full_encrypt(pkg_.params(), "alice", m, rng_);
  const auto ct2 = FullCiphertext::from_bytes(pkg_.params(), ct.to_bytes());
  EXPECT_EQ(full_decrypt(pkg_.params(), pkg_.extract("alice"), ct2), m);
}

TEST_F(IbeTest, SplitKeyRecombines) {
  const SplitKey split = pkg_.extract_split("alice", rng_);
  EXPECT_EQ(split.user + split.sem, pkg_.extract("alice"));
}

TEST_F(IbeTest, SplitIsRandomizedPerCall) {
  const SplitKey s1 = pkg_.extract_split("alice", rng_);
  const SplitKey s2 = pkg_.extract_split("alice", rng_);
  EXPECT_NE(s1.user, s2.user);
  EXPECT_EQ(s1.user + s1.sem, s2.user + s2.sem);
}

TEST_F(IbeTest, SplitHalvesDecryptViaMaskRecombination) {
  // The §4 identity: g = ê(U, d_user) · ê(U, d_sem) decrypts FullIdent.
  const Bytes m = random_message();
  const auto ct = full_encrypt(pkg_.params(), "alice", m, rng_);
  const SplitKey split = pkg_.extract_split("alice", rng_);
  const pairing::TatePairing e(pkg_.params().curve());
  const auto g = e.pair(ct.u, split.user) * e.pair(ct.u, split.sem);
  EXPECT_EQ(full_decrypt_with_mask(pkg_.params(), g, ct), m);
}

TEST_F(IbeTest, SingleHalfIsUseless) {
  const Bytes m = random_message();
  const auto ct = full_encrypt(pkg_.params(), "alice", m, rng_);
  const SplitKey split = pkg_.extract_split("alice", rng_);
  const pairing::TatePairing e(pkg_.params().curve());
  EXPECT_THROW(
      full_decrypt_with_mask(pkg_.params(), e.pair(ct.u, split.user), ct),
      DecryptionError);
  EXPECT_THROW(
      full_decrypt_with_mask(pkg_.params(), e.pair(ct.u, split.sem), ct),
      DecryptionError);
}

TEST_F(IbeTest, DeriveRNeverZero) {
  const BigInt& q = pkg_.params().order();
  for (int i = 0; i < 50; ++i) {
    Bytes sigma(32), msg(32);
    rng_.fill(sigma);
    rng_.fill(msg);
    const BigInt r = elgamal::derive_r(kBfDomains, sigma, msg, q);
    EXPECT_FALSE(r.is_zero());
    EXPECT_LT(r, q);
  }
}

TEST_F(IbeTest, MasksAreLabelSeparatedAndSized) {
  Bytes sigma(32);
  rng_.fill(sigma);
  EXPECT_EQ(elgamal::sigma_mask(kBfDomains, sigma, 32).size(), 32u);
  EXPECT_NE(elgamal::sigma_mask(kBfDomains, sigma, 32),
            hash::expand("BF.H2", sigma, 32));
}

// Byte-exact seeded BasicIdent and FullIdent ciphertexts, whole wire
// form <U, V[, W]>. The encryption code may be restructured, but these
// bytes may not move: they pin every domain string and the RNG draw
// order (r for BasicIdent, σ for FullIdent).
struct IbeGoldenVector {
  const char* set;
  const char* basic;
  const char* full;

  friend void PrintTo(const IbeGoldenVector& v, std::ostream* os) {
    *os << v.set;
  }
};

// The textbook encryption, drawing from `rng` in the scheme's order:
// U = r·P and g = ê(r·P_pub, Q_ID) by one raw pairing, with every
// multiple from the affine double-and-add oracle.
Bytes textbook_encrypt(const SystemParams& params, std::string_view identity,
                       BytesView m, bool full, RandomSource& rng) {
  const std::size_t n = params.message_len;
  Bytes sigma(n);
  if (full) rng.fill(sigma);
  const BigInt r = full
                       ? elgamal::derive_r(kBfDomains, sigma, m, params.order())
                       : BigInt::random_unit(rng, params.order());
  const pairing::TatePairing e(params.curve());
  const Fp2 g =
      e.pair(params.p_pub.mul_affine(r), map_identity(params, identity));
  const Bytes u = params.generator().mul_affine(r).to_bytes();
  if (!full) return concat(u, xor_bytes(m, mask_from_g(g, n)));
  return concat(u, xor_bytes(sigma, mask_from_g(g, n)),
                xor_bytes(m, elgamal::sigma_mask(kBfDomains, sigma, n)));
}

class IbeGoldenTest : public ::testing::TestWithParam<IbeGoldenVector> {};

TEST_P(IbeGoldenTest, CiphertextVectors) {
  const IbeGoldenVector& golden = GetParam();
  HmacDrbg rng(160);
  Pkg pkg(pairing::named_params(golden.set), 32, rng);
  HmacDrbg twin = rng;
  const Bytes m = str_bytes("golden boneh-franklin message 32");
  const auto basic = basic_encrypt(pkg.params(), "alice", m, rng);
  const auto full = full_encrypt(pkg.params(), "alice", m, rng);
  EXPECT_EQ(to_hex(basic.to_bytes()), golden.basic);
  EXPECT_EQ(to_hex(full.to_bytes()), golden.full);
  // The same bytes from the textbook encryption on a twin DRBG.
  EXPECT_EQ(to_hex(textbook_encrypt(pkg.params(), "alice", m, false, twin)),
            golden.basic);
  EXPECT_EQ(to_hex(textbook_encrypt(pkg.params(), "alice", m, true, twin)),
            golden.full);
  EXPECT_EQ(basic_decrypt(pkg.params(), pkg.extract("alice"), basic), m);
  EXPECT_EQ(full_decrypt(pkg.params(), pkg.extract("alice"), full), m);
}

INSTANTIATE_TEST_SUITE_P(
    NamedSets, IbeGoldenTest,
    ::testing::Values(
        IbeGoldenVector{
            "toy64",
            "0351b064ad0899f6b429a8f2319e324876aee5f1340f350f26f2ff02f275d3b3"
            "92259d1895b7233f3bf4cac260d9f8a47f",
            "02807b246b1db9a1243443118d4867e6f5e6783ce7cbe68d44ebea40c7c031eb"
            "0baca7b30a37f77c2ab48e9af415f8e66be525ea1f6c9ce6e7a606516ce67e77"
            "0e7ba583a7ad2315b2ace6191534e364e4"},
        IbeGoldenVector{
            "sec80",
            "0307d0a118e3be36f7c412c6f86f040e32216330321343942e83cdabdd16780d"
            "e44cbaae4c408abb86cf00fc1cd8c9889f1ab8d3f87c4a1b7c7db353fdf7dc3e"
            "49ad2ca36cfda13b0fb9cc21c6f78ec820b0bd7b779ff7a63a996237d20a3567"
            "fe",
            "0240728214b27b0160988b491d0fb70500cdc039d903a48ced2d58270cfb29c8"
            "7591fe40d81db9a821f6411efe4b60f46d2a91747da50ab0fc7e5bdce38501eb"
            "f5fba5a46488e23280285fb57eadbd4e19e83dce82a816be4dc39ad06487bd50"
            "0de525ea1f6c9ce6e7a606516ce67e770e7ba583a7ad2315b2ace6191534e364"
            "e4"}),
    [](const auto& info) { return std::string(info.param.set); });

// Message length sweep.
class IbeMessageLen : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IbeMessageLen, FullRoundTripAcrossSizes) {
  HmacDrbg rng(91);
  Pkg pkg(pairing::toy_params(), GetParam(), rng);
  Bytes m(GetParam());
  rng.fill(m);
  const auto ct = full_encrypt(pkg.params(), "carol", m, rng);
  EXPECT_EQ(full_decrypt(pkg.params(), pkg.extract("carol"), ct), m);
}

INSTANTIATE_TEST_SUITE_P(Sizes, IbeMessageLen,
                         ::testing::Values(1, 16, 32, 64, 100));


// Encryption raises the cached g_ID = ê(P_pub, Q_ID) to r. The oracle
// recomputes each ciphertext the textbook way, with the pairing
// ê(r·P_pub, Q_ID), from a twin DRBG; the bytes must match whatever the
// state of the pair-value cache: cold, warm, or after eviction.
class IbeEncryptOracleTest : public ::testing::TestWithParam<const char*> {
 protected:
  IbeEncryptOracleTest()
      : rng_(150), pkg_(pairing::named_params(GetParam()), 32, rng_) {}

  const SystemParams& params() const { return pkg_.params(); }

  // One encryption to `identity`, checked against the oracle on a twin
  // DRBG. Returns the pair-value cache's {hits, misses} delta.
  std::pair<std::uint64_t, std::uint64_t> expect_matches_oracle(
      std::string_view identity, bool full) {
    Bytes m(params().message_len);
    rng_.fill(m);
    const std::uint64_t seed = ++seed_;
    HmacDrbg enc_rng(seed), oracle_rng(seed);
    const auto before = pairing::pair_value_cache().stats();
    const Bytes ct =
        full ? full_encrypt(params(), identity, m, enc_rng).to_bytes()
             : basic_encrypt(params(), identity, m, enc_rng).to_bytes();
    const auto after = pairing::pair_value_cache().stats();
    EXPECT_EQ(ct, textbook_encrypt(params(), identity, m, full, oracle_rng))
        << identity << (full ? " full" : " basic");
    return {after.hits - before.hits, after.misses - before.misses};
  }

  bool g_id_cached(std::string_view identity) const {
    const Bytes tag = concat(params().p_pub.to_bytes(),
                             map_identity(params(), identity).to_bytes());
    return pairing::pair_value_cache().get("BF.gID", tag).has_value();
  }

  // Twice the cache's capacity in fresh entries turns over every shard.
  static void flood_pair_value_cache(const Fp2& filler) {
    const auto& cache = pairing::pair_value_cache();
    for (std::uint32_t i = 0; i < 2 * 4096; ++i) {
      const std::uint8_t id[4] = {static_cast<std::uint8_t>(i >> 24),
                                  static_cast<std::uint8_t>(i >> 16),
                                  static_cast<std::uint8_t>(i >> 8),
                                  static_cast<std::uint8_t>(i)};
      cache.put("test.flood", id, filler);
    }
  }

  HmacDrbg rng_;
  Pkg pkg_;
  std::uint64_t seed_ = 1000;
};

TEST_P(IbeEncryptOracleTest, CiphertextsMatchOracleColdWarmAndEvicted) {
  using Delta = std::pair<std::uint64_t, std::uint64_t>;
  const Delta hit{1, 0}, miss{0, 1};
  for (const bool full : {false, true}) {
    const std::string id =
        std::string(full ? "full" : "basic") + "-oracle@" + GetParam();
    ASSERT_FALSE(g_id_cached(id));
    EXPECT_EQ(expect_matches_oracle(id, full), miss);  // cold
    EXPECT_EQ(expect_matches_oracle(id, full), hit);   // warm
    EXPECT_EQ(expect_matches_oracle(id, full), hit);

    const auto& cache = pairing::pair_value_cache();
    const std::uint64_t evictions = cache.stats().evictions;
    flood_pair_value_cache(Fp2::one(params().curve()->field()));
    EXPECT_GT(cache.stats().evictions, evictions);
    ASSERT_FALSE(g_id_cached(id));
    EXPECT_EQ(expect_matches_oracle(id, full), miss);  // evicted
    EXPECT_EQ(expect_matches_oracle(id, full), hit);
  }
  pairing::pair_value_cache().clear();  // drop the filler entries
}

TEST_P(IbeEncryptOracleTest, WarmEncryptionRunsNoPairing) {
  auto& reg = obs::registry();
  const auto count = [&] {
    return std::array<std::uint64_t, 2>{
        reg.stage_histogram(obs::Stage::kPairingMiller).count(),
        reg.stage_histogram(obs::Stage::kPairingFinalExp).count()};
  };
  const std::string id = std::string("warm@") + GetParam();
  Bytes m(params().message_len);
  rng_.fill(m);

  auto before = count();
  full_encrypt(params(), id, m, rng_);  // cold: computes g_ID once
  auto after = count();
  EXPECT_EQ(after[0], before[0] + 1);
  EXPECT_EQ(after[1], before[1] + 1);

  before = count();
  full_encrypt(params(), id, m, rng_);
  basic_encrypt(params(), id, m, rng_);
  EXPECT_EQ(count(), before);
}

INSTANTIATE_TEST_SUITE_P(NamedSets, IbeEncryptOracleTest,
                         ::testing::Values("toy64", "sec80"));

}  // namespace
}  // namespace medcrypt::ibe

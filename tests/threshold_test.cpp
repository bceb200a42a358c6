// Tests for the threshold schemes of §3 and §5: threshold BF-IBE with
// share verification and robustness proofs, threshold GDH, threshold
// ElGamal, cheater detection and recovery.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "hash/drbg.h"
#include "hash/kdf.h"
#include "obs/registry.h"
#include "pairing/params.h"
#include "threshold/threshold_elgamal.h"
#include "threshold/threshold_gdh.h"
#include "threshold/threshold_ibe.h"

namespace medcrypt::threshold {
namespace {

using hash::HmacDrbg;

// Y1 = ê(P_pub^(i), Q_ID), the public side of player i's statement.
Fp2 vk_pairing(const ThresholdSetup& setup, std::string_view identity,
               std::uint32_t index) {
  const pairing::TatePairing pairing(setup.params.curve());
  return pairing.pair(setup.verification_key(index),
                      ibe::map_identity(setup.params, identity));
}

// The original per-share verifier, kept as an oracle for the batch one:
// e = H("TIBE.proof", S‖Y1‖w1‖w2‖U), ê(P, V) = w1·Y1^e and
// ê(U, V) = w2·S^e, with raw pairings.
bool two_equation_check(const ThresholdSetup& setup,
                        std::string_view identity, const ec::Point& u,
                        const DecryptionShare& s) {
  const pairing::TatePairing pairing(setup.params.curve());
  const ShareProof& proof = *s.proof;
  const Fp2 y1 = vk_pairing(setup, identity, s.index);
  const Bytes data =
      concat(concat(s.value.to_bytes(), y1.to_bytes()),
             concat(proof.w1.to_bytes(), proof.w2.to_bytes()), u.to_bytes());
  return hash::hash_to_range("TIBE.proof", data, setup.params.order()) ==
             proof.e &&
         pairing.pair(setup.params.generator(), proof.v) ==
             proof.w1 * y1.pow(proof.e) &&
         pairing.pair(u, proof.v) == proof.w2 * s.value.pow(proof.e);
}

// The per-share path's selection: the first t shares, in input order,
// that pass the oracle.
std::vector<std::uint32_t> oracle_selection(
    const ThresholdSetup& setup, std::string_view identity,
    const ec::Point& u, const std::vector<DecryptionShare>& shares) {
  std::vector<std::uint32_t> out;
  for (const DecryptionShare& s : shares) {
    if (out.size() == setup.threshold) break;
    if (two_equation_check(setup, identity, u, s)) out.push_back(s.index);
  }
  return out;
}

std::vector<std::uint32_t> indices_of(
    const std::vector<DecryptionShare>& shares) {
  std::vector<std::uint32_t> out;
  for (const DecryptionShare& s : shares) out.push_back(s.index);
  return out;
}

std::uint64_t batch_fallbacks() {
  return obs::registry().counter("threshold.batch_fallbacks").value();
}

class ThresholdIbeTest : public ::testing::Test {
 protected:
  ThresholdIbeTest()
      : rng_(110), dealer_(pairing::toy_params(), 32, 3, 5, rng_) {}

  Bytes random_message() {
    Bytes m(32);
    rng_.fill(m);
    return m;
  }

  std::vector<DecryptionShare> shares_for(const std::vector<KeyShare>& keys,
                                          const ec::Point& u, bool prove,
                                          const std::vector<int>& idx) {
    std::vector<DecryptionShare> out;
    for (int i : idx) {
      out.push_back(compute_decryption_share(dealer_.setup(), keys[i], u,
                                             prove, rng_));
    }
    return out;
  }

  HmacDrbg rng_;
  ThresholdDealer dealer_;
};

TEST_F(ThresholdIbeTest, SetupShapes) {
  const ThresholdSetup& s = dealer_.setup();
  EXPECT_EQ(s.threshold, 3u);
  EXPECT_EQ(s.players, 5u);
  EXPECT_EQ(s.verification_keys.size(), 5u);
  EXPECT_THROW(s.verification_key(0), InvalidArgument);
  EXPECT_THROW(s.verification_key(6), InvalidArgument);
}

TEST_F(ThresholdIbeTest, SetupConsistencyCheckPasses) {
  // Σ L_i P_pub^(i) = P_pub for every t-subset tried.
  const std::vector<std::vector<std::uint32_t>> subsets = {
      {1, 2, 3}, {1, 2, 4}, {3, 4, 5}, {1, 3, 5}};
  for (const auto& subset : subsets) {
    EXPECT_TRUE(verify_setup_consistency(dealer_.setup(), subset));
  }
  // Wrong-size subsets fail.
  const std::vector<std::uint32_t> small = {1, 2};
  EXPECT_FALSE(verify_setup_consistency(dealer_.setup(), small));
}

TEST_F(ThresholdIbeTest, KeySharesVerify) {
  const auto keys = dealer_.extract_shares("alice");
  ASSERT_EQ(keys.size(), 5u);
  for (const KeyShare& k : keys) {
    EXPECT_TRUE(verify_key_share(dealer_.setup(), "alice", k));
    EXPECT_FALSE(verify_key_share(dealer_.setup(), "bob", k));
  }
}

TEST_F(ThresholdIbeTest, CorruptKeyShareDetected) {
  auto keys = dealer_.extract_shares("alice");
  keys[2].value = keys[2].value.dbl();  // tamper
  EXPECT_FALSE(verify_key_share(dealer_.setup(), "alice", keys[2]));
}

TEST_F(ThresholdIbeTest, ThresholdDecryptionMatchesDirect) {
  const Bytes m = random_message();
  const auto ct =
      ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");

  const auto shares = shares_for(keys, ct.u, false, {0, 2, 4});
  EXPECT_EQ(threshold_full_decrypt(dealer_.setup(), shares, ct), m);

  // Cross-check against the unshared key.
  EXPECT_EQ(ibe::full_decrypt(dealer_.setup().params,
                              dealer_.extract_full_key("alice"), ct),
            m);
}

TEST_F(ThresholdIbeTest, AnyTSubsetDecrypts) {
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");
  for (const auto& idx : std::vector<std::vector<int>>{
           {0, 1, 2}, {1, 3, 4}, {0, 3, 4}, {2, 3, 4}}) {
    const auto shares = shares_for(keys, ct.u, false, idx);
    EXPECT_EQ(threshold_full_decrypt(dealer_.setup(), shares, ct), m);
  }
}

TEST_F(ThresholdIbeTest, TooFewSharesRejected) {
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");
  const auto shares = shares_for(keys, ct.u, false, {0, 1});
  EXPECT_THROW(combine_decryption_shares(dealer_.setup(), shares),
               InvalidArgument);
}

TEST_F(ThresholdIbeTest, DuplicateSharesRejected) {
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");
  auto shares = shares_for(keys, ct.u, false, {0, 1, 1});
  EXPECT_THROW(combine_decryption_shares(dealer_.setup(), shares),
               InvalidArgument);
}

TEST_F(ThresholdIbeTest, WrongSubsetOfSharesGivesGarbage) {
  // t-1 honest shares + 1 share for another identity: FO check fails.
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto alice_keys = dealer_.extract_shares("alice");
  const auto bob_keys = dealer_.extract_shares("bob");
  std::vector<DecryptionShare> shares = {
      compute_decryption_share(dealer_.setup(), alice_keys[0], ct.u, false, rng_),
      compute_decryption_share(dealer_.setup(), alice_keys[1], ct.u, false, rng_),
      compute_decryption_share(dealer_.setup(), bob_keys[2], ct.u, false, rng_)};
  EXPECT_THROW(threshold_full_decrypt(dealer_.setup(), shares, ct),
               DecryptionError);
}

TEST_F(ThresholdIbeTest, RobustProofsVerify) {
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");
  const auto shares = shares_for(keys, ct.u, true, {0, 1, 2, 3, 4});
  const auto valid =
      select_valid_shares(dealer_.setup(), "alice", ct.u, shares);
  EXPECT_EQ(valid.size(), 3u);
  EXPECT_EQ(threshold_full_decrypt(dealer_.setup(), valid, ct), m);
}

TEST_F(ThresholdIbeTest, CheaterShareRejectedByProofCheck) {
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");
  auto shares = shares_for(keys, ct.u, true, {0, 1, 2, 3});

  // Player 1 (shares[0]) lies: swaps in a random pairing value, keeps its
  // (now inconsistent) proof.
  shares[0].value = shares[0].value.square();
  const auto valid =
      select_valid_shares(dealer_.setup(), "alice", ct.u, shares);
  ASSERT_EQ(valid.size(), 3u);
  EXPECT_EQ(valid[0].index, 2u);  // cheater excluded
  EXPECT_EQ(threshold_full_decrypt(dealer_.setup(), valid, ct), m);
}

TEST_F(ThresholdIbeTest, ForgedProofRejected) {
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");
  auto shares = shares_for(keys, ct.u, true, {0, 1, 2});

  // Tamper with the proof response.
  shares[1].proof->v = shares[1].proof->v.dbl();
  EXPECT_THROW(select_valid_shares(dealer_.setup(), "alice", ct.u, shares),
               ProofError);
}

TEST_F(ThresholdIbeTest, SharesWithoutProofsRejectedInRobustMode) {
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");
  const auto shares = shares_for(keys, ct.u, false, {0, 1, 2});
  EXPECT_THROW(select_valid_shares(dealer_.setup(), "alice", ct.u, shares),
               ProofError);
}

TEST_F(ThresholdIbeTest, ReplayedSharesSkipped) {
  // [s1, s1, s2, s3]: the replayed copy of s1 must not take a slot.
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");
  const auto shares = shares_for(keys, ct.u, true, {0, 0, 1, 2});
  const auto valid =
      select_valid_shares(dealer_.setup(), "alice", ct.u, shares);
  EXPECT_EQ(indices_of(valid), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(threshold_full_decrypt(dealer_.setup(), valid, ct), m);

  // Replays alone never make up t distinct players.
  const auto replays = shares_for(keys, ct.u, true, {0, 0, 1, 1});
  EXPECT_THROW(select_valid_shares(dealer_.setup(), "alice", ct.u, replays),
               ProofError);
}

TEST_F(ThresholdIbeTest, NewProofsPassTwoEquationOracle) {
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");
  for (const DecryptionShare& s :
       shares_for(keys, ct.u, true, {0, 1, 2, 3, 4})) {
    EXPECT_TRUE(two_equation_check(dealer_.setup(), "alice", ct.u, s))
        << "player " << s.index;
    // The share value itself is unchanged: S = ê(U, d_IDi).
    const pairing::TatePairing pairing(dealer_.setup().params.curve());
    EXPECT_EQ(s.value, pairing.pair(ct.u, keys[s.index - 1].value));
  }
}

TEST_F(ThresholdIbeTest, BatchNamesCheaterAtEveryPosition) {
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(dealer_.setup().params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");
  for (std::size_t pos = 0; pos < dealer_.setup().threshold; ++pos) {
    auto shares = shares_for(keys, ct.u, true, {0, 1, 2, 3, 4});
    shares[pos].value = shares[pos].value.square();
    const std::uint64_t before = batch_fallbacks();
    const auto valid =
        select_valid_shares(dealer_.setup(), "alice", ct.u, shares);
    EXPECT_EQ(batch_fallbacks() - before, 1u);
    const std::vector<std::uint32_t> selected = indices_of(valid);
    EXPECT_EQ(selected,
              oracle_selection(dealer_.setup(), "alice", ct.u, shares))
        << "cheater at batch position " << pos;
    EXPECT_EQ(std::count(selected.begin(), selected.end(), shares[pos].index),
              0);
    EXPECT_EQ(threshold_full_decrypt(dealer_.setup(), valid, ct), m);
  }
  // An honest batch never falls back.
  const auto honest = shares_for(keys, ct.u, true, {0, 1, 2});
  const std::uint64_t before = batch_fallbacks();
  EXPECT_EQ(select_valid_shares(dealer_.setup(), "alice", ct.u, honest).size(),
            3u);
  EXPECT_EQ(batch_fallbacks(), before);
}

TEST_F(ThresholdIbeTest, CompensatingForgeriesRejectedByWeights) {
  // V_1 + X and V_2 − X leave Σ V_i unchanged, so an unweighted product
  // of the verification equations still holds; the weights must not.
  const ThresholdSetup& setup = dealer_.setup();
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(setup.params, "alice", m, rng_);
  const auto keys = dealer_.extract_shares("alice");
  auto shares = shares_for(keys, ct.u, true, {0, 1, 2, 3, 4});
  const ec::Point x =
      setup.params.group.mul_g(BigInt::random_unit(rng_, setup.params.order()));
  shares[0].proof->v += x;
  shares[1].proof->v = shares[1].proof->v - x;

  const pairing::TatePairing pairing(setup.params.curve());
  ec::Point v_sum = setup.params.curve()->infinity();
  Fp2 lhs1 = Fp2::one(setup.params.curve()->field());
  Fp2 lhs2 = lhs1;
  std::vector<Fp2> y1s;
  for (std::size_t i = 0; i < 3; ++i) {
    const DecryptionShare& s = shares[i];
    y1s.push_back(vk_pairing(setup, "alice", s.index));
    v_sum += s.proof->v;
    lhs1 = lhs1 * s.proof->w1 * y1s.back().pow(s.proof->e);
    lhs2 = lhs2 * s.proof->w2 * s.value.pow(s.proof->e);
  }
  EXPECT_EQ(pairing.pair(setup.params.generator(), v_sum), lhs1);
  EXPECT_EQ(pairing.pair(ct.u, v_sum), lhs2);

  std::vector<ShareStatement> batch;
  for (std::size_t i = 0; i < 3; ++i) {
    batch.push_back({shares[i].index, &shares[i].value, &y1s[i],
                     &*shares[i].proof});
  }
  EXPECT_FALSE(verify_share_batch(pairing, setup.params.generator(), ct.u,
                                  setup.params.order(), batch));
  const auto valid = select_valid_shares(setup, "alice", ct.u, shares);
  EXPECT_EQ(indices_of(valid), (std::vector<std::uint32_t>{3, 4, 5}));
  EXPECT_EQ(threshold_full_decrypt(setup, valid, ct), m);
}

TEST_F(ThresholdIbeTest, CheaterKeyShareRecovery) {
  // §3.2: t honest players reconstruct the cheater's key share.
  const auto keys = dealer_.extract_shares("alice");
  const std::vector<KeyShare> honest = {keys[0], keys[2], keys[4]};
  const ec::Point recovered =
      recover_key_share(dealer_.setup(), honest, /*target=*/2);
  EXPECT_EQ(recovered, keys[1].value);

  // Too few honest players:
  const std::vector<KeyShare> few = {keys[0], keys[2]};
  EXPECT_THROW(recover_key_share(dealer_.setup(), few, 2), InvalidArgument);
}

TEST_F(ThresholdIbeTest, RejectsBadThresholds) {
  HmacDrbg rng(111);
  EXPECT_THROW(ThresholdDealer(pairing::toy_params(), 32, 0, 5, rng),
               InvalidArgument);
  EXPECT_THROW(ThresholdDealer(pairing::toy_params(), 32, 6, 5, rng),
               InvalidArgument);
}

// ---------------------------------------------------------------------------

class ThresholdGdhTest : public ::testing::Test {
 protected:
  ThresholdGdhTest() : rng_(112) {}
  HmacDrbg rng_;
};

TEST_F(ThresholdGdhTest, ThresholdSignatureVerifies) {
  auto dealing = gdh_threshold_setup(pairing::toy_params(), 2, 4, rng_);
  const Bytes msg = str_bytes("board resolution #7");

  std::vector<GdhSignatureShare> shares = {
      gdh_sign_share(dealing.setup, dealing.shares[1], msg),
      gdh_sign_share(dealing.setup, dealing.shares[3], msg)};
  for (const auto& s : shares) {
    EXPECT_TRUE(gdh_verify_share(dealing.setup, msg, s));
  }
  const ec::Point sig = gdh_combine_shares(dealing.setup, shares);
  EXPECT_TRUE(gdh::verify(dealing.setup.group, dealing.setup.public_key, msg, sig));
}

TEST_F(ThresholdGdhTest, CombinedSignatureEqualsDirectSignature) {
  // Determinism of BLS: every t-subset combines to the same σ = x·h(M).
  auto dealing = gdh_threshold_setup(pairing::toy_params(), 3, 5, rng_);
  const Bytes msg = str_bytes("m");
  auto make = [&](std::initializer_list<int> idx) {
    std::vector<GdhSignatureShare> shares;
    for (int i : idx) {
      shares.push_back(gdh_sign_share(dealing.setup, dealing.shares[i], msg));
    }
    return gdh_combine_shares(dealing.setup, shares);
  };
  const ec::Point s1 = make({0, 1, 2});
  const ec::Point s2 = make({2, 3, 4});
  EXPECT_EQ(s1, s2);
}

TEST_F(ThresholdGdhTest, BadShareDetected) {
  auto dealing = gdh_threshold_setup(pairing::toy_params(), 2, 3, rng_);
  const Bytes msg = str_bytes("m");
  GdhSignatureShare bad = gdh_sign_share(dealing.setup, dealing.shares[0], msg);
  bad.value = bad.value.dbl();
  EXPECT_FALSE(gdh_verify_share(dealing.setup, msg, bad));
  EXPECT_FALSE(gdh_verify_share(dealing.setup, str_bytes("other"),
                                gdh_sign_share(dealing.setup, dealing.shares[0], msg)));
}

TEST_F(ThresholdGdhTest, TooFewSharesRejected) {
  auto dealing = gdh_threshold_setup(pairing::toy_params(), 3, 4, rng_);
  const Bytes msg = str_bytes("m");
  std::vector<GdhSignatureShare> shares = {
      gdh_sign_share(dealing.setup, dealing.shares[0], msg)};
  EXPECT_THROW(gdh_combine_shares(dealing.setup, shares), InvalidArgument);
}

// ---------------------------------------------------------------------------

class ThresholdElGamalTest : public ::testing::Test {
 protected:
  ThresholdElGamalTest() : rng_(113) {
    params_.group = pairing::toy_params();
    params_.message_len = 32;
  }
  HmacDrbg rng_;
  elgamal::Params params_;
};

TEST_F(ThresholdElGamalTest, ThresholdDecryptionRoundTrip) {
  auto dealing = elgamal_threshold_setup(params_, 2, 3, rng_);
  Bytes m(32);
  rng_.fill(m);
  const auto ct =
      elgamal::fo_encrypt(dealing.setup.params, dealing.setup.public_key, m, rng_);

  std::vector<ElGamalDecryptionShare> shares = {
      elgamal_decrypt_share(dealing.shares[0], ct.c1),
      elgamal_decrypt_share(dealing.shares[2], ct.c1)};
  for (const auto& s : shares) {
    EXPECT_TRUE(elgamal_verify_share(dealing.setup, ct.c1, s));
  }
  const ec::Point shared = elgamal_combine_shares(dealing.setup, shares);
  EXPECT_EQ(elgamal::fo_decrypt_with_shared(dealing.setup.params, shared, ct), m);
}

TEST_F(ThresholdElGamalTest, BadShareDetected) {
  auto dealing = elgamal_threshold_setup(params_, 2, 3, rng_);
  Bytes m(32);
  rng_.fill(m);
  const auto ct =
      elgamal::fo_encrypt(dealing.setup.params, dealing.setup.public_key, m, rng_);
  ElGamalDecryptionShare bad = elgamal_decrypt_share(dealing.shares[0], ct.c1);
  bad.value = bad.value + dealing.setup.params.group.generator;
  EXPECT_FALSE(elgamal_verify_share(dealing.setup, ct.c1, bad));
}

TEST_F(ThresholdElGamalTest, TwoOfTwoSplitIsMediatedShape) {
  // The (2,2) instance behind mediated ElGamal.
  auto dealing = elgamal_threshold_setup(params_, 2, 2, rng_);
  Bytes m(32);
  rng_.fill(m);
  const auto ct =
      elgamal::fo_encrypt(dealing.setup.params, dealing.setup.public_key, m, rng_);
  std::vector<ElGamalDecryptionShare> shares = {
      elgamal_decrypt_share(dealing.shares[0], ct.c1),
      elgamal_decrypt_share(dealing.shares[1], ct.c1)};
  const ec::Point shared = elgamal_combine_shares(dealing.setup, shares);
  EXPECT_EQ(elgamal::fo_decrypt_with_shared(dealing.setup.params, shared, ct), m);
}

// Threshold grid sweep for the IBE.
class ThresholdIbeGrid
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ThresholdIbeGrid, DecryptsAcrossGrid) {
  const auto [t, n] = GetParam();
  HmacDrbg rng(120 + t * 16 + n);
  ThresholdDealer dealer(pairing::toy_params(), 32, t, n, rng);
  Bytes m(32);
  rng.fill(m);
  const auto ct = ibe::full_encrypt(dealer.setup().params, "grid", m, rng);
  const auto keys = dealer.extract_shares("grid");
  std::vector<DecryptionShare> shares;
  for (std::size_t i = 0; i < t; ++i) {
    shares.push_back(
        compute_decryption_share(dealer.setup(), keys[i], ct.u, false, rng));
  }
  EXPECT_EQ(threshold_full_decrypt(dealer.setup(), shares, ct), m);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ThresholdIbeGrid,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{1, 3},
                      std::pair<std::size_t, std::size_t>{2, 2},
                      std::pair<std::size_t, std::size_t>{2, 5},
                      std::pair<std::size_t, std::size_t>{4, 7},
                      std::pair<std::size_t, std::size_t>{5, 9}));

// Robust decryption across thresholds on the test and the paper's
// parameter sets, with a cheater among the first t responders whenever
// n > t leaves room for one.
using RobustGridCase = std::tuple<std::string, std::size_t, std::size_t>;

class ThresholdRobustGrid : public ::testing::TestWithParam<RobustGridCase> {};

TEST_P(ThresholdRobustGrid, SelectsAndDecryptsAcrossGrid) {
  const auto [params, t, n] = GetParam();
  HmacDrbg rng(130 + t * 16 + n);
  ThresholdDealer dealer(pairing::named_params(params), 32, t, n, rng);
  Bytes m(32);
  rng.fill(m);
  const auto ct = ibe::full_encrypt(dealer.setup().params, "grid", m, rng);
  const auto keys = dealer.extract_shares("grid");
  std::vector<DecryptionShare> shares;
  for (std::size_t i = 0; i < n; ++i) {
    shares.push_back(
        compute_decryption_share(dealer.setup(), keys[i], ct.u, true, rng));
  }
  if (n > t) shares[t - 1].value = shares[t - 1].value.square();
  const auto valid = select_valid_shares(dealer.setup(), "grid", ct.u, shares);
  ASSERT_EQ(valid.size(), t);
  EXPECT_EQ(indices_of(valid),
            oracle_selection(dealer.setup(), "grid", ct.u, shares));
  EXPECT_EQ(threshold_full_decrypt(dealer.setup(), valid, ct), m);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ThresholdRobustGrid,
    ::testing::Values(RobustGridCase{"toy64", 1, 1},
                      RobustGridCase{"toy64", 2, 3},
                      RobustGridCase{"toy64", 5, 9},
                      RobustGridCase{"sec80", 1, 2},
                      RobustGridCase{"sec80", 3, 5},
                      RobustGridCase{"sec80", 4, 7}));

}  // namespace
}  // namespace medcrypt::threshold

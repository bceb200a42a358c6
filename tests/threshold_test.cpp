// Tests for the threshold schemes of §3 and §5: threshold BF-IBE with
// share verification and robustness proofs, threshold GDH, threshold
// ElGamal, cheater detection and recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <string>
#include <tuple>

#include "common/error.h"
#include "ec/hash_to_point.h"
#include "hash/drbg.h"
#include "hash/kdf.h"
#include "obs/obs.h"
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

// e = H("TIBE.proof", S‖Y1‖w1‖w2‖U).
BigInt proof_challenge(const ThresholdSetup& setup, const ec::Point& u,
                       const Fp2& value, const Fp2& y1,
                       const ShareProof& proof) {
  const Bytes data =
      concat(concat(value.to_bytes(), y1.to_bytes()),
             concat(proof.w1.to_bytes(), proof.w2.to_bytes()), u.to_bytes());
  return hash::hash_to_range("TIBE.proof", data, setup.params.order());
}

// The §3.2 prover the textbook way, drawing k from `rng`: R = k·base
// through the affine double-and-add oracle, S = ê(U, d_IDi),
// w1 = ê(P, R) and w2 = ê(U, R) by raw pairings, and V = R + e·d_IDi.
// base = d_IDi is the commitment prove_share makes; base = P is the
// earlier prover's, whose proofs stay pinned as verifier vectors.
ProvedShare textbook_prove(const ThresholdSetup& setup, const ec::Point& u,
                           const ec::Point& d_idi, const ec::Point& base,
                           RandomSource& rng) {
  const pairing::TatePairing pairing(setup.params.curve());
  const ec::Point& P = setup.params.generator();
  const ec::Point r =
      base.mul_affine(BigInt::random_unit(rng, setup.params.order()));
  ProvedShare out;
  out.value = pairing.pair(u, d_idi);
  out.proof.w1 = pairing.pair(P, r);
  out.proof.w2 = pairing.pair(u, r);
  out.proof.e =
      proof_challenge(setup, u, out.value, pairing.pair(P, d_idi), out.proof);
  out.proof.v = r + d_idi.mul_affine(out.proof.e);
  return out;
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
  return proof_challenge(setup, u, s.value, y1, proof) == proof.e &&
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
  // An index outside [1, n] is a bad share, not an error.
  for (const std::uint32_t index : {0u, 6u}) {
    KeyShare misplaced = keys[0];
    misplaced.index = index;
    EXPECT_FALSE(verify_key_share(dealer_.setup(), "alice", misplaced));
  }
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

TEST_F(ThresholdIbeTest, ProvedAndUnprovedSharesCarryTheSameValue) {
  const auto ct =
      ibe::full_encrypt(dealer_.setup().params, "alice", random_message(), rng_);
  const auto keys = dealer_.extract_shares("alice");
  for (const KeyShare& k : keys) {
    const DecryptionShare proved =
        compute_decryption_share(dealer_.setup(), k, ct.u, true, rng_);
    const DecryptionShare plain =
        compute_decryption_share(dealer_.setup(), k, ct.u, false, rng_);
    EXPECT_EQ(proved.value, plain.value) << "player " << k.index;
    EXPECT_FALSE(plain.proof.has_value());
  }
}

TEST_F(ThresholdIbeTest, TamperedStoredY1ShareDropped) {
  // The prover's w1 = Y1^k and its challenge both use the key share's
  // stored Y1; a wrong one yields a proof the verifier's own Y1 rejects.
  const ThresholdSetup& setup = dealer_.setup();
  const Bytes m = random_message();
  const auto ct = ibe::full_encrypt(setup.params, "alice", m, rng_);
  auto keys = dealer_.extract_shares("alice");
  keys[1].y1 = keys[1].y1.square();
  auto shares = shares_for(keys, ct.u, true, {0, 1, 2, 3});

  const DecryptionShare& bad = shares[1];
  EXPECT_EQ(bad.value, pairing::TatePairing(setup.params.curve())
                           .pair(ct.u, keys[1].value));
  EXPECT_FALSE(verify_share_proof(setup.params.group, ct.u, bad.value,
                                  vk_pairing(setup, "alice", 2), *bad.proof));
  const auto valid = select_valid_shares(setup, "alice", ct.u, shares);
  EXPECT_EQ(indices_of(valid), (std::vector<std::uint32_t>{1, 3, 4}));
  EXPECT_EQ(threshold_full_decrypt(setup, valid, ct), m);
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
  EXPECT_FALSE(verify_share_batch(setup.params.group, ct.u, batch));
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

// Byte-exact seeded §3.2 proved share: the prover and the combiner may
// be restructured, but S, w1, w2, e and V may not move. They pin the
// RNG draw order (k first), the commitment R = k·d_IDi (w1 = Y1^k,
// w2 = S^k), the Fiat–Shamir input S‖Y1‖w1‖w2‖U and the response
// V = (k + e)·d_IDi; the selection pins the order in which an S²
// cheater at position 0 is replaced. `kp_proof` is what the earlier
// prover, committing with R = k·P, made from the same draws: the
// verifier must keep accepting it.
struct PinnedProof {
  const char* w1;
  const char* w2;
  const char* e;
  const char* v;
};

// The pinned hex form of a proof.
std::array<std::string, 4> proof_hex(const PinnedProof& p) {
  return {p.w1, p.w2, p.e, p.v};
}

std::array<std::string, 4> proof_hex(const ShareProof& p, std::size_t e_len) {
  return {to_hex(p.w1.to_bytes()), to_hex(p.w2.to_bytes()),
          to_hex(p.e.to_bytes_be_padded(e_len)), to_hex(p.v.to_bytes())};
}

struct RobustGoldenVector {
  const char* set;
  const char* value;
  PinnedProof proof;
  PinnedProof kp_proof;
  std::vector<std::uint32_t> selected;

  friend void PrintTo(const RobustGoldenVector& g, std::ostream* os) {
    *os << g.set;
  }
};

// The seeded (3, 5) dealer, ciphertext and key shares the vectors use.
struct RobustGoldenRun {
  explicit RobustGoldenRun(const char* set)
      : rng(170),
        dealer(pairing::named_params(set), 32, 3, 5, rng),
        ct(ibe::full_encrypt(dealer.setup().params, "alice", m, rng)),
        keys(dealer.extract_shares("alice")) {}

  const Bytes m = str_bytes("golden robust threshold message.");
  HmacDrbg rng;
  const ThresholdDealer dealer;
  const ibe::FullCiphertext ct;
  const std::vector<KeyShare> keys;
};

class RobustGoldenTest : public ::testing::TestWithParam<RobustGoldenVector> {
};

TEST_P(RobustGoldenTest, ProvedShareAndSelectionVectors) {
  const RobustGoldenVector& golden = GetParam();
  RobustGoldenRun run(golden.set);
  const ThresholdSetup& setup = run.dealer.setup();
  const auto& ct = run.ct;
  const auto& keys = run.keys;

  HmacDrbg twin = run.rng;
  HmacDrbg kp_twin = run.rng;
  const DecryptionShare share =
      compute_decryption_share(setup, keys[1], ct.u, true, run.rng);
  ASSERT_TRUE(share.proof.has_value());
  const std::size_t e_len = (setup.params.order().bit_length() + 7) / 8;
  EXPECT_EQ(to_hex(share.value.to_bytes()), golden.value);
  EXPECT_EQ(to_hex(share.proof->w1.to_bytes()), golden.proof.w1);
  EXPECT_EQ(to_hex(share.proof->w2.to_bytes()), golden.proof.w2);
  EXPECT_EQ(to_hex(share.proof->e.to_bytes_be_padded(e_len)), golden.proof.e);
  EXPECT_EQ(to_hex(share.proof->v.to_bytes()), golden.proof.v);

  // The textbook prover from the same draws: R = k·d_IDi gives the
  // pinned proof, R = k·P the pinned kp_proof.
  const ec::Point& d_idi = keys[1].value;
  for (const auto& [base, pinned, rng] :
       {std::tuple{d_idi, golden.proof, &twin},
        std::tuple{setup.params.generator(), golden.kp_proof, &kp_twin}}) {
    const ProvedShare textbook = textbook_prove(setup, ct.u, d_idi, base, *rng);
    EXPECT_EQ(to_hex(textbook.value.to_bytes()), golden.value);
    EXPECT_EQ(proof_hex(textbook.proof, e_len), proof_hex(pinned));
  }

  std::vector<DecryptionShare> shares;
  for (const KeyShare& k : keys) {
    shares.push_back(compute_decryption_share(setup, k, ct.u, true, run.rng));
  }
  shares[0].value = shares[0].value.square();
  const auto valid = select_valid_shares(setup, "alice", ct.u, shares);
  EXPECT_EQ(indices_of(valid), golden.selected);
  EXPECT_EQ(indices_of(valid), oracle_selection(setup, "alice", ct.u, shares));
  EXPECT_EQ(threshold_full_decrypt(setup, valid, ct), run.m);
}

// The pinned proofs are verifier vectors too: each passes
// verify_share_proof against the Y1 the setup recomputes and the raw
// two-equation oracle, and fails with one byte of e or of V flipped.
TEST_P(RobustGoldenTest, PinnedProofsVerify) {
  const RobustGoldenVector& golden = GetParam();
  const RobustGoldenRun run(golden.set);
  const ThresholdSetup& setup = run.dealer.setup();
  const pairing::ParamSet& group = setup.params.group;
  const field::PrimeField* field = setup.params.curve()->field();
  const Fp2 y1 = vk_pairing(setup, "alice", 2);
  const Fp2 value = Fp2::from_bytes(field, from_hex(golden.value));

  for (const PinnedProof& pinned : {golden.proof, golden.kp_proof}) {
    const ShareProof proof{
        .w1 = Fp2::from_bytes(field, from_hex(pinned.w1)),
        .w2 = Fp2::from_bytes(field, from_hex(pinned.w2)),
        .e = BigInt::from_bytes_be(from_hex(pinned.e)),
        .v = setup.params.curve()->decompress(from_hex(pinned.v))};
    EXPECT_TRUE(verify_share_proof(group, run.ct.u, value, y1, proof))
        << pinned.v;
    EXPECT_TRUE(two_equation_check(setup, "alice", run.ct.u,
                                   {.index = 2, .value = value, .proof = proof}))
        << pinned.v;

    Bytes e_bytes = from_hex(pinned.e);
    e_bytes.back() ^= 0x01;
    ShareProof bad_e = proof;
    bad_e.e = BigInt::from_bytes_be(e_bytes);
    EXPECT_FALSE(verify_share_proof(group, run.ct.u, value, y1, bad_e))
        << pinned.v;

    // 0x02 <-> 0x03 negates V; a flipped bit of x moves V off its
    // statement whenever the result still decodes to a point.
    std::size_t flipped_points = 0;
    for (std::size_t i = 0; i < 9; ++i) {
      Bytes v_bytes = from_hex(pinned.v);
      if (i == 0) {
        v_bytes[0] ^= 0x01;
      } else {
        v_bytes.back() ^= static_cast<std::uint8_t>(1u << (i - 1));
      }
      ShareProof bad_v = proof;
      try {
        bad_v.v = setup.params.curve()->decompress(v_bytes);
      } catch (const Error&) {
        continue;
      }
      ++flipped_points;
      EXPECT_FALSE(verify_share_proof(group, run.ct.u, value, y1, bad_v))
          << pinned.v << " flip " << i;
    }
    EXPECT_GE(flipped_points, 2u) << pinned.v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    NamedSets, RobustGoldenTest,
    ::testing::Values(
        RobustGoldenVector{
            "toy64",
            "8b6d3748a60fdb5ceee5b9f170a39b0589c5da320047c4801641f5caf74b4287",
            {"0738fb26fc0b50f56470346da779ffc91a9c29ee7c03f7092e4ddb6b3391828c",
             "1d0735bce00c9a256099ab317bed41096348964ae99fe5071a7349c54ba84ddb",
             "3180890e700eedef", "0369576a4938b726b9049459ead20407c1"},
            {"2c86857cb5de3e3c624232df19d7786d81dace1a56e564ad94ce3a8acc75b68e",
             "84ef824a887f52c451ebfd1730f8a3de0078fbef9e4e7e4761850c5dc7077056",
             "4cfb17bc16ff6408", "0392f864e0ef5e6edf8a99321a8ed2c1fb"},
            {2, 3, 4}},
        RobustGoldenVector{
            "sec80",
            "517c8978757c0d03a36904f9a370ba0abbb53a8d7fbead577585d463cd7f1ba9"
            "1fd8df52760a2f1f665af868ee4d47272484e52b8ca5fcc266d218ef453b25e8"
            "3256b71a6941ea710241687c9bbb6017bd4d5b5cae79412d0a83f52fb3d89da9"
            "65351fd0e456c33e7774206d029f202e4173567a656a648d6ccb914c6df9e650",
            {"339b33d546135111eb3b2e5612f3734b1e3b8a5defa76603ffada945bd32096f"
             "d871b1d20056304f6a3e6a6fd80886769827b48d79471bfcd1d661c37d81b1a7"
             "69f6bcc856119683377802bdb161256d67223fccb1e781f95b591874620fefc0"
             "2d40ddbb8f88910eb4928a5d3f00d251964ebd916821b6977aa0a8fb1b831564",
             "2f7f1d56d7da34da5b652c0deca927c5bab69d4b0e3ca41f63182aa9e65baeba"
             "cf1fdbe8b96eb70703720ca475ed204d68f1ffe6b490129eeb84b755437346af"
             "35c549e135b2e0877f0ccadf9b1d041e84676038dbd1b43844e68f352e110c55"
             "e5bb5aee3fbb2731eedbc8309b8ef0190efb4084fddb4469206a01e450cbd563",
             "1cc1c1c9351ae432bbe0600953e861cd5560c0a3",
             "0356402ff8101fb66d52c6e2834ba539654558afc57c24537b69baf901d81bd4"
             "f88a611e3406c4c69279daaf1755387d961f06a583d21120802032d0a8a90b07"
             "61"},
            {"43d57c91f445b0f52ce4778df1bf0445ac8caa039d32fda38c93718e9e74d9b2"
             "1df19ff7ddc900ae16cff2da5309b5019307a8f4a9273e9897ba6dec6b7c661e"
             "7eed1999a8a8fe31054fdeab8c184f2c11c4d8b7d6e3fa0d4409d8d9a5a2094a"
             "aeec47d2f6edc6f51e3a78103138b52e6319d5664f4a4d9a4614457d08745d07",
             "1cc3fed516ed025a27a5a87b17aeb7a48d15770d9129d152fc2be609b5b82107"
             "4edf85f98a6d4ed10e26ccfd475be5ca3ad7deb61c750b057c216ddd666f2f00"
             "32b7930c7154d43ab6a6bb296dfb0810136449180a72a136942b5fbc91e578a8"
             "01a7254608a405bdf199bad92a0fec89b10b69e61e00923389e81205b9238495",
             "7891ab2ed9dbe6ae83fb6d18ea4efb1c1e13c9e2",
             "02152a3221d127069f89e66ae9a2950a161de25cd1a486822f1bcf0689f8f6fa"
             "a07487b1a1b3cbc904f75d76efc36b82e71ce124d0bcaf0bee0bc5af091709b8"
             "7d"},
            {2, 3, 4}}),
    [](const auto& info) { return std::string(info.param.set); });

// Pairing work per call on sec80 (3, 5), read from the obs stage
// counts and the `pairing.miller_terms` counter. Per ciphertext the
// prover pays one raw pairing (S; w1 and w2 are powers of Y1 and S) and
// the combiner one replay of P_pub^(i)'s program per examined share plus
// the batch pairing; neither prepares anything.
TEST(RobustPairingCounts, PerCallStageCounts) {
  struct Counts {
    std::uint64_t miller, final_exp, prepare, terms;
  };
  const auto now = [] {
    obs::MetricsRegistry& r = obs::registry();
    return Counts{r.stage_histogram(obs::Stage::kPairingMiller).count(),
                  r.stage_histogram(obs::Stage::kPairingFinalExp).count(),
                  r.stage_histogram(obs::Stage::kPairingPrepare).count(),
                  r.counter("pairing.miller_terms").value()};
  };
  const auto expect_counts = [&](const Counts& before, const Counts& want,
                                 const char* what) {
    const Counts after = now();
    EXPECT_EQ(after.miller - before.miller, want.miller) << what;
    EXPECT_EQ(after.final_exp - before.final_exp, want.final_exp) << what;
    EXPECT_EQ(after.prepare - before.prepare, want.prepare) << what;
    EXPECT_EQ(after.terms - before.terms, want.terms) << what;
  };
  ASSERT_TRUE(obs::enabled());

  HmacDrbg rng(171);
  const ThresholdDealer dealer(pairing::paper_params(), 32, 3, 5, rng);
  const ThresholdSetup& setup = dealer.setup();
  const std::uint64_t t = setup.threshold;
  const auto keys = dealer.extract_shares("alice");
  const auto ct = ibe::full_encrypt(setup.params, "alice", Bytes(32, 7), rng);

  std::vector<DecryptionShare> shares;
  Counts before = now();
  shares.push_back(compute_decryption_share(setup, keys[0], ct.u, true, rng));
  expect_counts(before, {1, 1, 0, 1}, "proved share");
  for (std::size_t i = 1; i < keys.size(); ++i) {
    shares.push_back(compute_decryption_share(setup, keys[i], ct.u, true, rng));
  }

  before = now();
  EXPECT_EQ(select_valid_shares(setup, "alice", ct.u, shares).size(), t);
  expect_counts(before, {t + 1, t + 1, 0, t + 1}, "honest select");

  shares[0].value = shares[0].value.square();
  before = now();
  EXPECT_EQ(select_valid_shares(setup, "alice", ct.u, shares).size(), t);
  expect_counts(before, {t + 2, t + 2, 0, t + 2}, "S^2 cheater select");

  // One pair_many of two prepared terms: both Miller loops share one
  // accumulator and one pairing.miller span, and count as two terms.
  before = now();
  EXPECT_TRUE(verify_key_share(setup, "alice", keys[0]));
  expect_counts(before, {1, 1, 0, 2}, "verify_key_share");
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
  for (const std::uint32_t index : {0u, 4u}) {
    GdhSignatureShare misplaced =
        gdh_sign_share(dealing.setup, dealing.shares[0], msg);
    misplaced.index = index;
    EXPECT_FALSE(gdh_verify_share(dealing.setup, msg, misplaced));
  }
}

TEST_F(ThresholdGdhTest, TooFewSharesRejected) {
  auto dealing = gdh_threshold_setup(pairing::toy_params(), 3, 4, rng_);
  const Bytes msg = str_bytes("m");
  std::vector<GdhSignatureShare> shares = {
      gdh_sign_share(dealing.setup, dealing.shares[0], msg)};
  EXPECT_THROW(gdh_combine_shares(dealing.setup, shares), InvalidArgument);
}

TEST_F(ThresholdGdhTest, SetupRejectsBadIndicesAndThresholds) {
  const auto dealing = gdh_threshold_setup(pairing::toy_params(), 2, 3, rng_);
  EXPECT_EQ(dealing.setup.verification_keys.size(), 3u);
  EXPECT_THROW(dealing.setup.verification_key(0), InvalidArgument);
  EXPECT_THROW(dealing.setup.verification_key(4), InvalidArgument);
  EXPECT_THROW(gdh_threshold_setup(pairing::toy_params(), 0, 3, rng_),
               InvalidArgument);
  EXPECT_THROW(gdh_threshold_setup(pairing::toy_params(), 4, 3, rng_),
               InvalidArgument);
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
      elgamal_decrypt_share(dealing.shares[0], ct.u),
      elgamal_decrypt_share(dealing.shares[2], ct.u)};
  for (const auto& s : shares) {
    EXPECT_TRUE(elgamal_verify_share(dealing.setup, ct.u, s));
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
  ElGamalDecryptionShare bad = elgamal_decrypt_share(dealing.shares[0], ct.u);
  bad.value = bad.value + dealing.setup.params.group.generator;
  EXPECT_FALSE(elgamal_verify_share(dealing.setup, ct.u, bad));
  for (const std::uint32_t index : {0u, 4u}) {
    ElGamalDecryptionShare misplaced =
        elgamal_decrypt_share(dealing.shares[0], ct.u);
    misplaced.index = index;
    EXPECT_FALSE(elgamal_verify_share(dealing.setup, ct.u, misplaced));
  }
}

// S_i + T with T = (0, 0) of order 2: ê(P, S_i + T) = ê(P, S_i), so the
// pairing equation alone accepts it, and combining it would add λ_i·T
// into x·C1 (T itself when λ_i is odd). The share check must reject it
// on G1 membership.
TEST_F(ThresholdElGamalTest, SmallOrderShareRejected) {
  auto dealing = elgamal_threshold_setup(params_, 2, 3, rng_);
  Bytes m(32);
  rng_.fill(m);
  const auto ct =
      elgamal::fo_encrypt(dealing.setup.params, dealing.setup.public_key, m, rng_);
  const pairing::ParamSet& group = dealing.setup.params.group;
  const auto& field = group.curve->field();
  const ec::Point t = group.curve->point(field->zero(), field->zero());

  const ElGamalDecryptionShare honest =
      elgamal_decrypt_share(dealing.shares[0], ct.u);
  ElGamalDecryptionShare bad = honest;
  bad.value += t;
  const pairing::TatePairing pairing(group.curve);
  ASSERT_EQ(pairing.pair(group.generator, bad.value),
            pairing.pair(group.generator, honest.value));

  EXPECT_TRUE(elgamal_verify_share(dealing.setup, ct.u, honest));
  EXPECT_FALSE(elgamal_verify_share(dealing.setup, ct.u, bad));
}

TEST_F(ThresholdElGamalTest, SetupRejectsBadIndicesAndThresholds) {
  const auto dealing = elgamal_threshold_setup(params_, 2, 3, rng_);
  EXPECT_EQ(dealing.setup.verification_keys.size(), 3u);
  EXPECT_THROW(dealing.setup.verification_key(0), InvalidArgument);
  EXPECT_THROW(dealing.setup.verification_key(4), InvalidArgument);
  EXPECT_THROW(elgamal_threshold_setup(params_, 0, 3, rng_), InvalidArgument);
  EXPECT_THROW(elgamal_threshold_setup(params_, 4, 3, rng_), InvalidArgument);
}

// x_i·C1 for C1 of order dividing h would tell its caller x_i modulo
// that order: C1 = (0, 0) has order 2, and q·R for a point R of
// E(F_p) lies in the order-h part. The player must refuse both.
TEST_F(ThresholdElGamalTest, DecryptShareRejectsC1OutsideG1) {
  const auto dealing = elgamal_threshold_setup(params_, 2, 3, rng_);
  const ec::Curve* curve = params_.group.curve;
  const auto& field = curve->field();
  const ec::Point r = ec::hash_to_curve_candidate(curve, "test", Bytes{7});
  const ec::Point torsion = r.mul(params_.group.order());
  ASSERT_FALSE(torsion.is_infinity());
  for (const ec::Point& c1 :
       {curve->point(field->zero(), field->zero()), torsion}) {
    EXPECT_THROW(elgamal_decrypt_share(dealing.shares[0], c1),
                 InvalidArgument);
  }
}

TEST_F(ThresholdElGamalTest, TwoOfTwoSplitIsMediatedShape) {
  // The (2,2) instance behind mediated ElGamal.
  auto dealing = elgamal_threshold_setup(params_, 2, 2, rng_);
  Bytes m(32);
  rng_.fill(m);
  const auto ct =
      elgamal::fo_encrypt(dealing.setup.params, dealing.setup.public_key, m, rng_);
  std::vector<ElGamalDecryptionShare> shares = {
      elgamal_decrypt_share(dealing.shares[0], ct.u),
      elgamal_decrypt_share(dealing.shares[1], ct.u)};
  const ec::Point shared = elgamal_combine_shares(dealing.setup, shares);
  EXPECT_EQ(elgamal::fo_decrypt_with_shared(dealing.setup.params, shared, ct), m);
}

// One set of share-index rules for every combiner: exactly t shares with
// distinct indices in [1, n]. Each case relabels honest shares of a
// (3, 5) setup; a label that names no player takes player 3's share.
enum class Combiner { kIbe, kGdh, kElGamal };

struct IndexCase {
  const char* name;
  std::vector<std::uint32_t> labels;
  bool valid;
};

void PrintTo(const IndexCase& c, std::ostream* os) { *os << c.name; }

void combine_labelled(Combiner combiner,
                      const std::vector<std::uint32_t>& labels) {
  HmacDrbg rng(140);
  const auto player = [](std::uint32_t label) {
    return label >= 1 && label <= 5 ? label - 1 : 2;
  };
  const Bytes m(32, 0x5a);
  switch (combiner) {
    case Combiner::kIbe: {
      const ThresholdDealer dealer(pairing::toy_params(), 32, 3, 5, rng);
      const auto keys = dealer.extract_shares("alice");
      const auto ct = ibe::full_encrypt(dealer.setup().params, "alice", m, rng);
      std::vector<DecryptionShare> shares;
      for (std::uint32_t label : labels) {
        shares.push_back(compute_decryption_share(
            dealer.setup(), keys[player(label)], ct.u, false, rng));
        shares.back().index = label;
      }
      (void)combine_decryption_shares(dealer.setup(), shares);
      return;
    }
    case Combiner::kGdh: {
      const auto dealing = gdh_threshold_setup(pairing::toy_params(), 3, 5, rng);
      std::vector<GdhSignatureShare> shares;
      for (std::uint32_t label : labels) {
        shares.push_back(
            gdh_sign_share(dealing.setup, dealing.shares[player(label)], m));
        shares.back().index = label;
      }
      (void)gdh_combine_shares(dealing.setup, shares);
      return;
    }
    case Combiner::kElGamal: {
      const auto dealing = elgamal_threshold_setup(
          elgamal::Params{pairing::toy_params(), 32}, 3, 5, rng);
      const auto ct = elgamal::fo_encrypt(dealing.setup.params,
                                          dealing.setup.public_key, m, rng);
      std::vector<ElGamalDecryptionShare> shares;
      for (std::uint32_t label : labels) {
        shares.push_back(
            elgamal_decrypt_share(dealing.shares[player(label)], ct.u));
        shares.back().index = label;
      }
      (void)elgamal_combine_shares(dealing.setup, shares);
      return;
    }
  }
}

class CombinerIndexRules
    : public ::testing::TestWithParam<std::tuple<Combiner, IndexCase>> {};

TEST_P(CombinerIndexRules, EnforcesExactlyTDistinctIndicesInRange) {
  const auto& [combiner, c] = GetParam();
  if (c.valid) {
    EXPECT_NO_THROW(combine_labelled(combiner, c.labels));
  } else {
    EXPECT_THROW(combine_labelled(combiner, c.labels), InvalidArgument);
  }
}

std::string combiner_case_name(
    const ::testing::TestParamInfo<std::tuple<Combiner, IndexCase>>& info) {
  static const char* const kNames[] = {"Ibe", "Gdh", "ElGamal"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "_" + std::get<1>(info.param).name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombiners, CombinerIndexRules,
    ::testing::Combine(
        ::testing::Values(Combiner::kIbe, Combiner::kGdh, Combiner::kElGamal),
        ::testing::Values(IndexCase{"Valid", {1, 3, 5}, true},
                          IndexCase{"DuplicateIndex", {1, 2, 2}, false},
                          IndexCase{"IndexZero", {0, 1, 2}, false},
                          IndexCase{"IndexAboveN", {1, 2, 6}, false},
                          IndexCase{"TMinusOneShares", {1, 2}, false})),
    combiner_case_name);

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

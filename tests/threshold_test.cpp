// Tests for the threshold schemes of §3 and §5: threshold BF-IBE with
// share verification and robustness proofs, threshold GDH, threshold
// ElGamal, cheater detection and recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

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

  const DecryptionShare share =
      compute_decryption_share(setup, keys[1], ct.u, true, run.rng);
  ASSERT_TRUE(share.proof.has_value());
  const std::size_t e_len = (setup.params.order().bit_length() + 7) / 8;
  EXPECT_EQ(to_hex(share.value.to_bytes()), golden.value);
  EXPECT_EQ(to_hex(share.proof->w1.to_bytes()), golden.proof.w1);
  EXPECT_EQ(to_hex(share.proof->w2.to_bytes()), golden.proof.w2);
  EXPECT_EQ(to_hex(share.proof->e.to_bytes_be_padded(e_len)), golden.proof.e);
  EXPECT_EQ(to_hex(share.proof->v.to_bytes()), golden.proof.v);

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
            "387b012197468d1a18b0b76830026a11bd53dba5aae19eb670604e76bdba24f6",
            {"69602658c6c0871c8af70ebfe84b7ff2c9cbcaf994364424d81617b48d22266f",
             "43216d50a2eb486c7a83bb9474ed9d97c8aaac4ab0f6b9e7896498f544e82db3",
             "97c018d22d2dddec", "0371505f32c1e51afdade92a72eecda1c0"},
            {"7636f6b0a687c97f52f860d54c9544e2459dfc9b918f06fafcca069eee4b936b",
             "5eef9d0c1cd50846f2104a1b1644e5968ebc4a7e87d8dd1a94d67e419802172b",
             "4c59c7691f0e8569", "020566c15901fc137aa63eacf9fa6312fc"},
            {2, 3, 4}},
        RobustGoldenVector{
            "sec80",
            "537385409320d481ef7e88bc215d9a930926882434690a8e84ff5276b112fbc7"
            "db414d97a45884b4194d5d72561992867365b70d52e62f8df6a38afcf0bc4a4f"
            "73ab4936013d4e3da1ecbb9c981ad94d48ab24560de04c25878d0a15d230a63f"
            "8a66acb69a1cb0ceeb7ee98f547c3f2e4b91ed246e9869c80bb8291dac956fa9",
            {"9d8cea6d0404ce34c0b27ef67cc407ebe0ae9ef83384848c9502c1d22c124519"
             "0c04fc52b26923dd83c88001301604883d805ae91adb7f50a11524f2a1da78e3"
             "6c0fc1e2c9c3a99e24a5a7994d3694fca80632255e3a289caf6466d733714135"
             "79700e4f1a42e3abb6a48cbcd6a2efaf76f5b7ae37ea11c51d5968d0473bbaaf",
             "58939f343eae6685c6c9c9a7801f0407ae3e669054464ce767647da7a3bab6d0"
             "42e15d21e0fff0c96eec37162dec894a5e34c8b68b032e730cba37d7fcf1577b"
             "bf3cc60bfbd41ca538dd149578752b4aa0881be1cb91634dae520d8c6b97f8ec"
             "e5a9bb78d5653cac11ab920fbe869d988da55b5e4c26684b3aed52bd4785e538",
             "d872c4a0d5e419eb899bdeeb10137d553ef6e166",
             "02ddaa96c45be5ea8fb0bffe27ce731ff5fd43a4eb1c3aceb3a214d180454f93"
             "0973fcb111fbf94ee1224975546438d5eec5ff319318ac861dc73e3cd079a43c"
             "f1"},
            {"af7a410a5cd74d51cefd8dfcf0a169e0e6c8da648271afa1553f7c859e947aed"
             "cb6caf1a1cfe7b9d83286c965c2197d90ba5f886fc3e390cc340dbcf11101d84"
             "617b0a92b5c1829481c67d4248b28ca913b3cbb4993dd161f0cf712e4f0f6cd6"
             "e8c2b527a7b7471d356008876d749e55acb4943ccbbac3a56408e6ea42a94934",
             "ca3305132a2a87fc6e5da50592f1d2ab44c3ece7b2a6638508ec01bcd4bc411b"
             "685f82d7d7e14c06174c019d687df78e800917a36ceb26912e211c1ce0e9d349"
             "79fef7d68f734b824e18d278492af433a3a2fe418b95a267f9dfd5da5121993f"
             "54622649283cd1001ad40e95fc7f5b27460f259de2423910edc64f4e5cca3602",
             "00db83ec35455dea0547a7f8a89afda879084c37",
             "03383db276323e1f7b2aa0fb77d6f58dab0822738536babbaacceb7a3dd67c94"
             "b51b6e6cd4207da2e0d0030932aabbb82ac58aac5d0f6d3b9116fb1156d238f7"
             "7c"},
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

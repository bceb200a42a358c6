#include "threshold/threshold_ibe.h"

#include <array>
#include <set>

#include "common/error.h"
#include "obs/span.h"

namespace medcrypt::threshold {

const Point& ThresholdSetup::verification_key(std::uint32_t index) const {
  if (index == 0 || index > verification_keys.size()) {
    throw InvalidArgument("ThresholdSetup: player index out of range");
  }
  return verification_keys[index - 1];
}

ThresholdDealer::ThresholdDealer(pairing::ParamSet group,
                                 std::size_t message_len, std::size_t t,
                                 std::size_t n, RandomSource& rng) {
  if (t < 1 || t > n) {
    throw InvalidArgument("ThresholdDealer: need 1 <= t <= n");
  }
  const BigInt& q = group.order();
  const BigInt s = BigInt::random_unit(rng, q);
  shamir::Sharing sharing = shamir::share_secret(s, t, n, q, rng);
  coefficients_ = std::move(sharing.coefficients);

  setup_.params.p_pub = group.mul_g(s);
  setup_.params.message_len = message_len;
  setup_.threshold = t;
  setup_.players = n;
  setup_.verification_keys.reserve(n);
  for (const shamir::Share& share : sharing.shares) {
    setup_.verification_keys.push_back(group.mul_g(share.value));
  }
  setup_.params.group = std::move(group);
}

std::vector<KeyShare> ThresholdDealer::extract_shares(
    std::string_view identity) const {
  obs::Span span(obs::Stage::kShareExtract);
  const Point q_id = ibe::map_identity(setup_.params, identity);
  const BigInt& q = setup_.params.order();
  std::vector<KeyShare> shares;
  shares.reserve(setup_.players);
  // Every share multiplies the same per-identity base Q_ID, so a
  // fixed-base table amortizes across players; below ~4 players the
  // table build costs more than it saves.
  const bool use_table = setup_.players >= 4;
  const ec::FixedBaseTable q_id_table =
      use_table ? ec::FixedBaseTable(q_id, q) : ec::FixedBaseTable();
  for (std::uint32_t i = 1; i <= setup_.players; ++i) {
    const BigInt f_i = shamir::evaluate_polynomial(
        coefficients_, BigInt(static_cast<std::uint64_t>(i)), q);
    shares.push_back(KeyShare{i, use_table ? q_id_table.mul(f_i)
                                           : q_id.mul(f_i)});
  }
  return shares;
}

Point ThresholdDealer::extract_full_key(std::string_view identity) const {
  return ibe::map_identity(setup_.params, identity).mul(coefficients_[0]);
}

bool verify_key_share(const ThresholdSetup& setup, std::string_view identity,
                      const KeyShare& share) {
  // ê(P_pub^(i), Q_ID) · ê(P, −d_IDi) = 1 as one product pairing, with P
  // from the ParamSet's program, the one the prover replays.
  const pairing::ParamSet& group = setup.params.group;
  const Point q_id = ibe::map_identity(setup.params, identity);
  const Point neg_d = -share.value;
  const std::array<pairing::TatePairing::PairTerm, 2> terms = {{
      {.p = &setup.verification_key(share.index), .q = &q_id},
      {.prepared = group.generator_program.get(), .q = &neg_d},
  }};
  return group.pairing->pair_many(terms).is_one();
}

bool verify_setup_consistency(const ThresholdSetup& setup,
                              std::span<const std::uint32_t> indices) {
  if (indices.size() != setup.threshold) return false;
  const BigInt& q = setup.params.order();
  Point acc = setup.params.curve()->infinity();
  for (std::uint32_t i : indices) {
    const BigInt lambda = shamir::lagrange_coefficient(indices, i, BigInt{}, q);
    acc += setup.verification_key(i).mul(lambda);
  }
  return acc == setup.params.p_pub;
}

DecryptionShare compute_decryption_share(const ThresholdSetup& setup,
                                         const KeyShare& share, const Point& u,
                                         bool prove, RandomSource& rng) {
  obs::Span span(obs::Stage::kShareCompute);
  DecryptionShare out;
  out.index = share.index;
  if (!prove) {
    out.value = setup.params.group.pairing->pair(u, share.value);
    return out;
  }
  // The proof statement's public side Y1 = ê(P_pub^(i), Q_ID) is
  // recomputed by the verifier; the prover reaches the same value
  // through its own key share, ê(P, d_IDi) = Y1 by key-share correctness.
  ProvedShare proved = prove_share(setup.params.group, u, share.value, rng);
  out.value = proved.value;
  out.proof = std::move(proved.proof);
  return out;
}

Fp2 combine_decryption_shares(const ThresholdSetup& setup,
                              std::span<const DecryptionShare> shares) {
  obs::Span span(obs::Stage::kShareCombine);
  if (shares.size() != setup.threshold) {
    throw InvalidArgument(
        "combine_decryption_shares: need exactly t shares");
  }
  std::vector<std::uint32_t> indices;
  indices.reserve(shares.size());
  std::set<std::uint32_t> seen;
  for (const DecryptionShare& s : shares) {
    if (!seen.insert(s.index).second) {
      throw InvalidArgument("combine_decryption_shares: duplicate index");
    }
    indices.push_back(s.index);
  }
  // g = Π S_i^λ_i over one shared squaring chain.
  const BigInt& q = setup.params.order();
  std::vector<Fp2> values;
  std::vector<BigInt> lambdas;
  values.reserve(shares.size());
  lambdas.reserve(shares.size());
  for (const DecryptionShare& s : shares) {
    values.push_back(s.value);
    lambdas.push_back(
        shamir::lagrange_coefficient(indices, s.index, BigInt{}, q));
  }
  return field::multi_pow(values, lambdas);
}

std::vector<DecryptionShare> select_valid_shares(
    const ThresholdSetup& setup, std::string_view identity, const Point& u,
    std::span<const DecryptionShare> shares) {
  obs::Span span(obs::Stage::kShareVerify);
  // Well-formed candidates in input order: a proof, an index in range,
  // and an index not seen before (the first occurrence wins).
  std::vector<const DecryptionShare*> candidates;
  std::set<std::uint32_t> seen;
  for (const DecryptionShare& s : shares) {
    if (!s.proof.has_value()) continue;
    if (s.index == 0 || s.index > setup.players) continue;
    if (!seen.insert(s.index).second) continue;
    candidates.push_back(&s);
  }
  const std::size_t t = setup.threshold;
  if (candidates.size() < t) {
    throw ProofError("select_valid_shares: fewer than t provably valid shares");
  }

  // Y1_i = ê(P_pub^(i), Q_ID) = ê(Q_ID, P_pub^(i)) (the pairing is
  // symmetric): replays of one program of Q_ID.
  const pairing::TatePairing& pairing = *setup.params.group.pairing;
  const pairing::PreparedPairing prep_q =
      pairing.prepare(ibe::map_identity(setup.params, identity));
  std::vector<Fp2> vk_pairings;
  vk_pairings.reserve(candidates.size());  // statements point into it
  for (std::size_t i = 0; i < t; ++i) {
    vk_pairings.push_back(pairing.pair_with(
        prep_q, setup.verification_key(candidates[i]->index)));
  }

  const auto statement = [&](std::size_t i) {
    const DecryptionShare& s = *candidates[i];
    return ShareStatement{s.index, &s.value, &vk_pairings[i], &*s.proof};
  };
  const auto verify = [&](std::span<const ShareStatement> batch) {
    return verify_share_batch(setup.params.group, u, batch);
  };

  std::vector<ShareStatement> batch;
  batch.reserve(t);
  for (std::size_t i = 0; i < t; ++i) batch.push_back(statement(i));
  std::vector<DecryptionShare> valid;
  valid.reserve(t);
  if (verify(batch)) {
    for (std::size_t i = 0; i < t; ++i) valid.push_back(*candidates[i]);
    return valid;
  }

  // Some statement is false: check one at a time, in input order, to
  // name the cheater.
  static obs::Counter& fallbacks =
      obs::registry().counter("threshold.batch_fallbacks");
  fallbacks.add();
  for (std::size_t i = 0; i < candidates.size() && valid.size() < t; ++i) {
    if (i == vk_pairings.size()) {
      vk_pairings.push_back(pairing.pair_with(
          prep_q, setup.verification_key(candidates[i]->index)));
    }
    const ShareStatement single = statement(i);
    if (verify(std::span(&single, 1))) valid.push_back(*candidates[i]);
  }
  if (valid.size() < t) {
    throw ProofError("select_valid_shares: fewer than t provably valid shares");
  }
  return valid;
}

Point recover_key_share(const ThresholdSetup& setup,
                        std::span<const KeyShare> honest,
                        std::uint32_t target) {
  if (honest.size() < setup.threshold) {
    throw InvalidArgument("recover_key_share: need >= t honest shares");
  }
  std::vector<std::uint32_t> indices;
  indices.reserve(setup.threshold);
  for (std::size_t i = 0; i < setup.threshold; ++i) {
    indices.push_back(honest[i].index);
  }
  const BigInt& q = setup.params.order();
  const BigInt x(static_cast<std::uint64_t>(target));
  Point acc = setup.params.curve()->infinity();
  for (std::size_t i = 0; i < setup.threshold; ++i) {
    const BigInt lambda =
        shamir::lagrange_coefficient(indices, honest[i].index, x, q);
    acc += honest[i].value.mul(lambda);
  }
  return acc;
}

Bytes threshold_full_decrypt(const ThresholdSetup& setup,
                             std::span<const DecryptionShare> shares,
                             const ibe::FullCiphertext& ct) {
  const Fp2 g = combine_decryption_shares(setup, shares);
  return ibe::full_decrypt_with_mask(setup.params, g, ct);
}

}  // namespace medcrypt::threshold

#include "threshold/threshold_ibe.h"

#include <array>
#include <set>

#include "common/error.h"
#include "obs/span.h"

namespace medcrypt::threshold {

ThresholdDealer::ThresholdDealer(pairing::ParamSet group,
                                 std::size_t message_len, std::size_t t,
                                 std::size_t n, RandomSource& rng) {
  coefficients_ =
      deal(group, t, n, rng, setup_, setup_.params.p_pub).coefficients;
  setup_.params.message_len = message_len;
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
  const Point* p_pub_i = setup.public_point(share.index);
  if (p_pub_i == nullptr) return false;
  const pairing::ParamSet& group = setup.params.group;
  const Point q_id = ibe::map_identity(setup.params, identity);
  const Point neg_d = -share.value;
  const std::array<pairing::TatePairing::PairTerm, 2> terms = {{
      {.p = p_pub_i, .q = &q_id},
      {.prepared = group.generator_program.get(), .q = &neg_d},
  }};
  return group.pairing->pair_many(terms).is_one();
}

bool verify_setup_consistency(const ThresholdSetup& setup,
                              std::span<const std::uint32_t> indices) {
  if (indices.size() != setup.threshold) return false;
  std::vector<const Point*> keys;
  keys.reserve(indices.size());
  for (std::uint32_t i : indices) keys.push_back(&setup.verification_key(i));
  return setup.interpolate(indices, keys, BigInt{}, setup.params.order()) ==
         setup.params.p_pub;
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
  std::vector<std::uint32_t> indices;
  std::vector<Fp2> values;
  indices.reserve(shares.size());
  values.reserve(shares.size());
  for (const DecryptionShare& s : shares) {
    indices.push_back(s.index);
    values.push_back(s.value);
  }
  // g = Π S_i^λ_i over one shared squaring chain.
  return field::multi_pow(
      values, setup.lagrange(indices, BigInt{}, setup.params.order()));
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
    if (setup.public_point(s.index) == nullptr) continue;
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
  return setup.interpolate_shares(honest.first(setup.threshold),
                                  BigInt(static_cast<std::uint64_t>(target)),
                                  setup.params.order());
}

Bytes threshold_full_decrypt(const ThresholdSetup& setup,
                             std::span<const DecryptionShare> shares,
                             const ibe::FullCiphertext& ct) {
  const Fp2 g = combine_decryption_shares(setup, shares);
  return ibe::full_decrypt_with_mask(setup.params, g, ct);
}

}  // namespace medcrypt::threshold

#include "threshold/threshold_ibe.h"

#include <array>
#include <set>

#include "common/error.h"
#include "obs/span.h"

namespace medcrypt::threshold {

KeyShare::KeyShare(const pairing::ParamSet& group, std::uint32_t index_,
                   Point value_)
    : index(index_),
      value(std::move(value_)),
      y1(group.pairing->pair_with(*group.generator_program, value)) {}

ThresholdSetup::ThresholdSetup(ibe::SystemParams params_, ThresholdKeys keys)
    : ThresholdKeys(std::move(keys)), params(std::move(params_)) {
  const pairing::TatePairing& pairing = *params.group.pairing;
  auto programs = std::make_shared<std::vector<pairing::PreparedPairing>>();
  programs->reserve(verification_keys.size());
  for (const Point& key : verification_keys) {
    programs->push_back(pairing.prepare(key));
  }
  verification_programs = std::move(programs);
}

const pairing::PreparedPairing& ThresholdSetup::verification_program(
    std::uint32_t index) const {
  (void)verification_key(index);
  return (*verification_programs)[index - 1];
}

ThresholdDealer::ThresholdDealer(pairing::ParamSet group,
                                 std::size_t message_len, std::size_t t,
                                 std::size_t n, RandomSource& rng) {
  ThresholdKeys keys;
  Point p_pub;
  coefficients_ = deal(group, t, n, rng, keys, p_pub).coefficients;
  setup_ = ThresholdSetup(
      ibe::SystemParams(std::move(group), std::move(p_pub), message_len),
      std::move(keys));
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
    shares.emplace_back(setup_.params.group, i,
                        use_table ? q_id_table.mul(f_i) : q_id.mul(f_i));
  }
  return shares;
}

Point ThresholdDealer::extract_full_key(std::string_view identity) const {
  return ibe::map_identity(setup_.params, identity).mul(coefficients_[0]);
}

bool verify_key_share(const ThresholdSetup& setup, std::string_view identity,
                      const KeyShare& share) {
  // ê(P_pub^(i), Q_ID) · ê(P, −d_IDi) = 1 as one product pairing over
  // two prepared programs: the setup's of P_pub^(i) and the ParamSet's
  // of P, the one the share's Y1 replays.
  if (setup.public_point(share.index) == nullptr) return false;
  const pairing::ParamSet& group = setup.params.group;
  const Point q_id = ibe::map_identity(setup.params, identity);
  const Point neg_d = -share.value;
  const std::array<pairing::TatePairing::PairTerm, 2> terms = {{
      {.prepared = &setup.verification_program(share.index), .q = &q_id},
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
  // recomputed by the verifier; the prover hashes and raises the key
  // share's own ê(P, d_IDi), the same value by key-share correctness.
  ProvedShare proved =
      prove_share(setup.params.group, u, share.value, share.y1, rng);
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

namespace {

[[noreturn]] void throw_too_few() {
  throw ProofError("select_valid_shares: fewer than t provably valid shares");
}

}  // namespace

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
  if (candidates.size() < t) throw_too_few();

  // Each candidate's cheap checks run once, in input order, until t
  // pass: its Y1_i = ê(P_pub^(i), Q_ID), a replay of the setup's program
  // of P_pub^(i), then check_statement. A candidate that fails them is
  // dropped and the next one pulled in.
  const pairing::ParamSet& group = setup.params.group;
  const Point q_id = ibe::map_identity(setup.params, identity);
  std::vector<Fp2> vk_pairings;
  vk_pairings.reserve(candidates.size());  // statements point into it
  std::vector<bool> passed;                // check_statement per candidate
  const auto statement = [&](std::size_t i) {
    const DecryptionShare& s = *candidates[i];
    return ShareStatement{s.index, &s.value, &vk_pairings[i], &*s.proof};
  };
  const auto examine = [&](std::size_t i) {
    vk_pairings.push_back(group.pairing->pair_with(
        setup.verification_program(candidates[i]->index), q_id));
    passed.push_back(check_statement(group, u, statement(i)));
    return passed.back();
  };
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < candidates.size() && survivors.size() < t;
       ++i) {
    if (examine(i)) survivors.push_back(i);
  }

  // One weighted pairing check over the t survivors. A call whose first
  // t candidates were not all accepted counts as a fallback.
  std::vector<ShareStatement> batch;
  batch.reserve(t);
  for (const std::size_t i : survivors) batch.push_back(statement(i));
  const bool accepted =
      survivors.size() == t && check_batch_equation(group, u, batch);
  if (!accepted || survivors.back() != t - 1) {
    static obs::Counter& fallbacks =
        obs::registry().counter("threshold.batch_fallbacks");
    fallbacks.add();
  }
  if (survivors.size() < t) throw_too_few();
  std::vector<DecryptionShare> valid;
  valid.reserve(t);
  if (accepted) {
    for (const std::size_t i : survivors) valid.push_back(*candidates[i]);
    return valid;
  }

  // Some survivor's equations are false: check the survivors one at a
  // time, in input order, to name the cheater, examining further
  // candidates as needed.
  for (std::size_t i = 0; i < candidates.size() && valid.size() < t; ++i) {
    if (i == passed.size() && !examine(i)) continue;
    if (!passed[i]) continue;
    const ShareStatement single = statement(i);
    if (check_batch_equation(group, u, std::span(&single, 1))) {
      valid.push_back(*candidates[i]);
    }
  }
  if (valid.size() < t) throw_too_few();
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

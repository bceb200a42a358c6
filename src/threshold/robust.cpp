#include "threshold/robust.h"

#include <array>
#include <vector>

#include "ec/jacobian.h"
#include "hash/kdf.h"

namespace medcrypt::threshold {

using bigint::BigInt;
using ec::Point;
using field::Fp2;
using field::multi_pow;

namespace {

// Batch weights ρ_i and c are 80-bit: the batch's soundness error is
// 2·2^-80 per attempt (docs/PERF.md §6).
constexpr std::size_t kWeightBytes = 10;

void append(Bytes& out, BytesView part) {
  out.insert(out.end(), part.begin(), part.end());
}

// Fiat–Shamir challenge over the full statement and commitments.
BigInt challenge(const Fp2& share_value, const Fp2& vk_pairing, const Fp2& w1,
                 const Fp2& w2, const Point& u, const BigInt& order) {
  Bytes data = share_value.to_bytes();
  append(data, vk_pairing.to_bytes());
  append(data, w1.to_bytes());
  append(data, w2.to_bytes());
  append(data, u.to_bytes());
  return hash::hash_to_range("TIBE.proof", data, order);
}

// Nonzero 80-bit weights ρ_1..ρ_n, then c, from SHA-256 over U and every
// statement (index, S, w1, w2, e, V): no weight is known before the whole
// batch is fixed.
std::vector<BigInt> batch_weights(const Point& u, const BigInt& order,
                                  std::span<const ShareStatement> batch) {
  const std::size_t e_len = (order.bit_length() + 7) / 8;
  Bytes data = u.to_bytes();
  for (const ShareStatement& s : batch) {
    append(data, be32(s.index));
    append(data, s.value->to_bytes());
    append(data, s.proof->w1.to_bytes());
    append(data, s.proof->w2.to_bytes());
    append(data, s.proof->e.to_bytes_be_padded(e_len));
    append(data, s.proof->v.to_bytes());
  }
  const std::size_t count = batch.size() + 1;
  const Bytes stream = hash::expand("TIBE.batch", data, count * kWeightBytes);
  std::vector<BigInt> weights;
  weights.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    BigInt w = BigInt::from_bytes_be(
        BytesView(stream).subspan(i * kWeightBytes, kWeightBytes));
    // A zero draw (probability 2^-80) would drop a statement.
    weights.push_back(w.is_zero() ? BigInt(1) : std::move(w));
  }
  return weights;
}

}  // namespace

ProvedShare prove_share(const pairing::ParamSet& group, const Point& u,
                        const Point& d_idi, const Fp2& y1,
                        RandomSource& rng) {
  const BigInt& order = group.order();
  const std::size_t bits = order.bit_length();
  // Commitment R = k·d_idi for random k, never formed: w1 = ê(P, R) =
  // Y1^k and w2 = ê(U, R) = S^k.
  BigInt k = BigInt::random_unit(rng, order);

  ProvedShare out;
  out.value = group.pairing->pair(u, d_idi);
  ShareProof& proof = out.proof;
  proof.w1 = field::pow_unitary(y1, k, bits);
  proof.w2 = field::pow_unitary(out.value, k, bits);
  proof.e = challenge(out.value, y1, proof.w1, proof.w2, u, order);
  // V = R + e·d_idi = s·d_idi with s = k + e reduced in Z_q by the
  // field's modular add, so the ladder runs bits(q) steps whatever s is.
  const field::PrimeField* zq = field::PrimeField::make(order);
  field::Fp s_q = zq->from_bigint(k);
  s_q += zq->from_bigint(proof.e);
  BigInt s = s_q.to_bigint();
  proof.v = d_idi.mul(s);
  k.wipe();
  s_q.wipe();
  s.wipe();
  return out;
}

bool check_statement(const pairing::ParamSet& group, const Point& u,
                     const ShareStatement& s) {
  // The challenge and the published values are public proof components;
  // branching on them reveals only the (public) verdict. Pairing outputs
  // always lie in G_T; a published value with a small-order component
  // (−S has order 2·q) would let a forger cancel that component against
  // a weight's parity, so the batch is only sound after the G_T tests.
  const BigInt& order = group.order();
  const ShareProof& proof = *s.proof;
  const field::OrderChain& chain = group.curve->chain();
  return challenge(*s.value, *s.vk_pairing, proof.w1, proof.w2, u, order) ==
             proof.e &&
         field::in_gt(*s.value, chain) && field::in_gt(proof.w1, chain) &&
         field::in_gt(proof.w2, chain);
}

bool check_batch_equation(const pairing::ParamSet& group, const Point& u,
                          std::span<const ShareStatement> batch) {
  if (batch.empty()) return true;
  // ê(P + c·U, Σ ρ_i·V_i) = Π w1_i^ρ_i · Y1_i^(e_i·ρ_i) · w2_i^(c·ρ_i) ·
  // S_i^(c·e_i·ρ_i), exponents reduced mod q (every base is in G_T).
  // Both sides are public, so both sums of multiples run multi_mul.
  const BigInt& order = group.order();
  const std::vector<BigInt> weights = batch_weights(u, order, batch);
  const BigInt& c = weights.back();
  std::vector<Point> responses;
  std::vector<Fp2> bases;
  std::vector<BigInt> exps;
  responses.reserve(batch.size());
  bases.reserve(4 * batch.size());
  exps.reserve(4 * batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ShareStatement& s = batch[i];
    const BigInt& rho = weights[i];
    const BigInt e_rho = s.proof->e.mul_mod(rho, order);
    responses.push_back(s.proof->v);
    bases.push_back(s.proof->w1);
    exps.push_back(rho);
    bases.push_back(*s.vk_pairing);
    exps.push_back(e_rho);
    bases.push_back(s.proof->w2);
    exps.push_back(rho.mul_mod(c, order));
    bases.push_back(*s.value);
    exps.push_back(e_rho.mul_mod(c, order));
  }
  const std::array<Point, 2> p_and_u = {group.generator, u};
  const std::array<BigInt, 2> one_and_c = {BigInt(1), c};
  const Point p_plus_cu = ec::multi_mul(p_and_u, one_and_c);
  const Point weighted_v =
      ec::multi_mul(responses, std::span(weights).first(batch.size()));
  return group.pairing->pair(p_plus_cu, weighted_v) == multi_pow(bases, exps);
}

bool verify_share_batch(const pairing::ParamSet& group, const Point& u,
                        std::span<const ShareStatement> batch) {
  // Per-statement checks first: each is far cheaper than the pairing.
  for (const ShareStatement& s : batch) {
    if (!check_statement(group, u, s)) return false;
  }
  return check_batch_equation(group, u, batch);
}

bool verify_share_proof(const pairing::ParamSet& group, const Point& u,
                        const Fp2& share_value, const Fp2& vk_pairing,
                        const ShareProof& proof) {
  const ShareStatement statement{0, &share_value, &vk_pairing, &proof};
  return verify_share_batch(group, u, std::span(&statement, 1));
}

}  // namespace medcrypt::threshold

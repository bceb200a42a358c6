#include "ibs/hess.h"

#include "common/error.h"
#include "hash/kdf.h"
#include "pairing/prepared_cache.h"

namespace medcrypt::ibs {

Bytes HessSignature::to_bytes() const {
  // u (compressed point) ‖ v (order-sized scalar).
  const auto& curve = u.curve();
  if (!curve) throw InvalidArgument("HessSignature: default-constructed u");
  const std::size_t scalar_len = (curve->order().bit_length() + 7) / 8;
  return concat(u.to_bytes(), v.to_bytes_be_padded(scalar_len));
}

HessSignature HessSignature::from_bytes(const ibe::SystemParams& params,
                                        BytesView bytes) {
  const std::size_t point_len = params.curve()->compressed_size();
  const std::size_t scalar_len = (params.order().bit_length() + 7) / 8;
  if (bytes.size() != point_len + scalar_len) {
    throw InvalidArgument("HessSignature::from_bytes: wrong length");
  }
  HessSignature sig;
  sig.u = params.curve()->decompress(bytes.subspan(0, point_len));
  sig.v = BigInt::from_bytes_be(bytes.subspan(point_len));
  if (sig.v >= params.order()) {
    throw InvalidArgument("HessSignature::from_bytes: scalar out of range");
  }
  return sig;
}

BigInt hess_challenge(const ibe::SystemParams& params, BytesView message,
                      const Fp2& commitment) {
  // Length-framed M ‖ r.
  Bytes data;
  append_framed(data, message);
  const Bytes r_bytes = commitment.to_bytes();
  data.insert(data.end(), r_bytes.begin(), r_bytes.end());
  return hash::hash_to_range("Hess.H", data, params.order());
}

HessSignature hess_sign(const ibe::SystemParams& params, const Point& d_id,
                        BytesView message, RandomSource& rng) {
  const BigInt k = BigInt::random_unit(rng, params.order());
  // r = ê(P, P)^k over the ParamSet's ê(P, P). k is the secret nonce,
  // hence the ladder power.
  const Fp2 r =
      field::pow_unitary(params.group.gpp, k, params.order().bit_length());
  HessSignature sig;
  sig.v = hess_challenge(params, message, r);
  sig.u = d_id.mul(sig.v) + params.group.mul_g(k);
  return sig;
}

bool hess_verify(const ibe::SystemParams& params, std::string_view identity,
                 BytesView message, const HessSignature& signature) {
  if (signature.u.is_infinity() || !signature.u.in_subgroup()) return false;
  if (signature.v.is_negative() || signature.v >= params.order()) return false;
  const pairing::TatePairing& pairing = *params.group.pairing;
  const Point q_id = ibe::map_identity(params, identity);
  // r' = ê(u, P) · ê(Q_ID, P_pub)^{-v}  (negate the point, not the
  // exponent: v is reduced mod q and pairing outputs have order q).
  // By pairing symmetry both factors have fixed, public first arguments
  // (P and −P_pub), so the product runs as one multi-pairing over the
  // ParamSet's program of P and the cached program of −P_pub.
  const Point vq = q_id.mul(signature.v);
  const auto prep_neg_ppub =
      pairing::shared_prepared(pairing, -params.p_pub, "ibs.verify");
  const pairing::TatePairing::PairTerm terms[] = {
      {nullptr, params.group.generator_program.get(), &signature.u},
      {nullptr, prep_neg_ppub.get(), &vq}};
  const Fp2 r_prime = pairing.pair_many(terms);
  return hess_challenge(params, message, r_prime) == signature.v;
}

}  // namespace medcrypt::ibs

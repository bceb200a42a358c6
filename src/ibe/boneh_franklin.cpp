#include "ibe/boneh_franklin.h"

#include "ec/hash_to_point.h"
#include "hash/kdf.h"
#include "pairing/prepared_cache.h"

namespace medcrypt::ibe {

namespace {

// The encryption side of BF's KEM: r ↦ H2(g_ID^r). g_ID = ê(P_pub, Q_ID)
// depends only on the recipient, so it comes from the process-wide
// pair-value cache and a repeat encryption to the same identity pays no
// pairing [BF01]. r is the secret encryption randomness, hence the ladder
// power. The mask equals H2(ê(rP_pub, Q_ID)) by bilinearity, so
// ciphertexts do not depend on the cache state.
auto identity_kem(const SystemParams& params, std::string_view identity) {
  return [&params, identity](const BigInt& r) {
    const Fp2 g_id =
        pairing::cached_pair(*params.group.pairing, params.p_pub,
                             map_identity(params, identity), "BF.gID");
    return mask_from_g(
        field::pow_unitary(g_id, r, params.order().bit_length()),
        params.message_len);
  };
}

}  // namespace

Point map_identity(const SystemParams& params, std::string_view identity) {
  // Through the process-wide H1 cache: encryptors and verifiers hit the
  // same Zipf-skewed identity working set over and over.
  return ec::hash_to_subgroup_cached(params.curve(), "BF.H1",
                                     str_bytes(identity));
}

Bytes mask_from_g(const Fp2& g, std::size_t n) {
  return hash::expand("BF.H2", g.to_bytes(), n);
}

BasicCiphertext basic_encrypt(const SystemParams& params,
                              std::string_view identity, BytesView message,
                              RandomSource& rng) {
  return elgamal::cpa_seal(params, message, rng,
                           identity_kem(params, identity));
}

Bytes basic_decrypt(const SystemParams& params, const Point& private_key,
                    const BasicCiphertext& ct) {
  const Fp2 g = params.group.pairing->pair(ct.u, private_key);
  return elgamal::cpa_open(params, mask_from_g(g, params.message_len), ct);
}

FullCiphertext full_encrypt(const SystemParams& params,
                            std::string_view identity, BytesView message,
                            RandomSource& rng) {
  return elgamal::fo_seal(params, kBfDomains, message, rng,
                          identity_kem(params, identity));
}

Bytes full_decrypt_with_mask(const SystemParams& params, const Fp2& g_r,
                             const FullCiphertext& ct) {
  return elgamal::fo_open(params, kBfDomains,
                          mask_from_g(g_r, params.message_len), ct);
}

Bytes full_decrypt(const SystemParams& params, const Point& private_key,
                   const FullCiphertext& ct) {
  return full_decrypt_with_mask(
      params, params.group.pairing->pair(ct.u, private_key), ct);
}

}  // namespace medcrypt::ibe

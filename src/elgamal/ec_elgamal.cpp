#include "elgamal/ec_elgamal.h"

#include "hash/kdf.h"

namespace medcrypt::elgamal {

namespace {

// The KEM mask H(S) of a point S: r·Y on encryption, x·U on decryption.
Bytes mask_from_point(const Point& s, std::size_t n) {
  return hash::expand("EG.H", s.to_bytes(), n);
}

// The encryption side of the KEM: r ↦ H(r·Y).
auto point_kem(const Params& params, const Point& pub) {
  return [&params, &pub](const BigInt& r) {
    return mask_from_point(pub.mul(r), params.message_len);
  };
}

}  // namespace

KeyPair keygen(const Params& params, RandomSource& rng) {
  const BigInt x = BigInt::random_unit(rng, params.order());
  return KeyPair{x, params.group.mul_g(x)};
}

CpaCiphertext cpa_encrypt(const Params& params, const Point& pub,
                          BytesView message, RandomSource& rng) {
  return cpa_seal(params, message, rng, point_kem(params, pub));
}

Bytes cpa_decrypt(const Params& params, const BigInt& secret,
                  const CpaCiphertext& ct) {
  return cpa_open(params, mask_from_point(ct.u.mul(secret), params.message_len),
                  ct);
}

FoCiphertext fo_encrypt(const Params& params, const Point& pub,
                        BytesView message, RandomSource& rng) {
  return fo_seal(params, kEgDomains, message, rng, point_kem(params, pub));
}

Bytes fo_decrypt_with_shared(const Params& params, const Point& shared,
                             const FoCiphertext& ct) {
  return fo_open(params, kEgDomains,
                 mask_from_point(shared, params.message_len), ct);
}

Bytes fo_decrypt(const Params& params, const BigInt& secret,
                 const FoCiphertext& ct) {
  return fo_decrypt_with_shared(params, ct.u.mul(secret), ct);
}

}  // namespace medcrypt::elgamal

#include "elgamal/fo_transform.h"

#include "common/error.h"
#include "hash/kdf.h"

namespace medcrypt::elgamal {

namespace {

BigInt fo_derive_r(BytesView sigma, BytesView message, const BigInt& q) {
  Bytes data;
  data.reserve(4 + sigma.size() + message.size());
  append_framed(data, sigma);
  data.insert(data.end(), message.begin(), message.end());
  BigInt r = hash::hash_to_range("EG.H3", data, q);
  if (r.is_zero()) r = BigInt(1);
  return r;
}

Bytes fo_sigma_mask(BytesView sigma, std::size_t n) {
  return hash::expand("EG.H4", sigma, n);
}

}  // namespace

Bytes FoCiphertext::to_bytes() const { return concat(c1.to_bytes(), c2, c3); }

FoCiphertext FoCiphertext::from_bytes(const Params& params, BytesView b) {
  const std::size_t point_len = params.group.curve->compressed_size();
  const std::size_t n = params.message_len;
  if (b.size() != point_len + 2 * n) {
    throw InvalidArgument("FoCiphertext::from_bytes: wrong length");
  }
  return FoCiphertext{params.group.curve->decompress(b.subspan(0, point_len)),
                      Bytes(b.begin() + point_len, b.begin() + point_len + n),
                      Bytes(b.begin() + point_len + n, b.end())};
}

FoCiphertext fo_encrypt(const Params& params, const Point& pub,
                        BytesView message, RandomSource& rng) {
  if (message.size() != params.message_len) {
    throw InvalidArgument("fo_encrypt: message must be message_len bytes");
  }
  const std::size_t n = params.message_len;
  Bytes sigma(n);
  rng.fill(sigma);
  const BigInt r = fo_derive_r(sigma, message, params.order());
  const Point shared = pub.mul(r);
  return FoCiphertext{params.group.mul_g(r),
                      xor_bytes(sigma, mask_from_point(shared, n)),
                      xor_bytes(message, fo_sigma_mask(sigma, n))};
}

Bytes fo_decrypt_with_shared(const Params& params, const Point& shared,
                             const FoCiphertext& ct) {
  const std::size_t n = params.message_len;
  if (ct.c2.size() != n || ct.c3.size() != n) {
    throw InvalidArgument("fo_decrypt: wrong ciphertext body length");
  }
  const Bytes sigma = xor_bytes(ct.c2, mask_from_point(shared, n));
  const Bytes message = xor_bytes(ct.c3, fo_sigma_mask(sigma, n));
  const BigInt r = fo_derive_r(sigma, message, params.order());
  if (!(params.group.mul_g(r) == ct.c1)) {
    throw DecryptionError("FO-ElGamal: ciphertext validity check failed");
  }
  return message;
}

Bytes fo_decrypt(const Params& params, const BigInt& secret,
                 const FoCiphertext& ct) {
  return fo_decrypt_with_shared(params, ct.c1.mul(secret), ct);
}

}  // namespace medcrypt::elgamal

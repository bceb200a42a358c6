#include "ibe/boneh_franklin.h"

#include "common/error.h"
#include "ec/hash_to_point.h"
#include "hash/kdf.h"
#include "pairing/prepared_cache.h"

namespace medcrypt::ibe {

namespace {

// Shared core of both encryption variants: U = rP and the mask g_ID^r.
// g_ID = ê(P_pub, Q_ID) depends only on the recipient, so it comes from
// the process-wide pair-value cache and a repeat encryption to the same
// identity pays no pairing [BF01]. r is the secret encryption
// randomness, hence the ladder power. The mask equals ê(rP_pub,
// Q_ID) by bilinearity, so ciphertexts do not depend on the cache state.
struct EncryptCore {
  Point u;   // rP
  Fp2 mask;  // ê(P_pub, Q_ID)^r
};

EncryptCore encrypt_core(const SystemParams& params, const Point& q_id,
                         const BigInt& r) {
  const Fp2 g_id = pairing::cached_pair(*params.group.pairing, params.p_pub,
                                        q_id, "BF.gID");
  return EncryptCore{params.group.mul_g(r),
                     field::pow_unitary(g_id, r, params.order().bit_length())};
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

BigInt derive_r(BytesView sigma, BytesView message, const BigInt& q) {
  // Length-prefix sigma to make the (sigma, message) encoding injective.
  Bytes data;
  data.reserve(4 + sigma.size() + message.size());
  append_framed(data, sigma);
  data.insert(data.end(), message.begin(), message.end());
  // H3 must land in [1, q-1]: r = 0 would make U = O and leak sigma.
  BigInt r = hash::hash_to_range("BF.H3", data, q);
  if (r.is_zero()) r = BigInt(1);
  return r;
}

Bytes mask_from_sigma(BytesView sigma, std::size_t n) {
  return hash::expand("BF.H4", sigma, n);
}

// ---------------------------------------------------------------------------
// BasicIdent
// ---------------------------------------------------------------------------

Bytes BasicCiphertext::to_bytes() const {
  return concat(u.to_bytes(), v);
}

BasicCiphertext BasicCiphertext::from_bytes(const SystemParams& params,
                                            BytesView b) {
  const std::size_t point_len = params.curve()->compressed_size();
  if (b.size() != point_len + params.message_len) {
    throw InvalidArgument("BasicCiphertext::from_bytes: wrong length");
  }
  return BasicCiphertext{params.curve()->decompress(b.subspan(0, point_len)),
                         Bytes(b.begin() + point_len, b.end())};
}

BasicCiphertext basic_encrypt(const SystemParams& params,
                              std::string_view identity, BytesView message,
                              RandomSource& rng) {
  if (message.size() != params.message_len) {
    throw InvalidArgument("basic_encrypt: message must be message_len bytes");
  }
  const Point q_id = map_identity(params, identity);
  const BigInt r = BigInt::random_unit(rng, params.order());

  EncryptCore core = encrypt_core(params, q_id, r);
  return BasicCiphertext{
      std::move(core.u),
      xor_bytes(message, mask_from_g(core.mask, params.message_len))};
}

Bytes basic_decrypt(const SystemParams& params, const Point& private_key,
                    const BasicCiphertext& ct) {
  if (ct.v.size() != params.message_len) {
    throw InvalidArgument("basic_decrypt: wrong ciphertext body length");
  }
  const Fp2 g = params.group.pairing->pair(ct.u, private_key);
  return xor_bytes(ct.v, mask_from_g(g, params.message_len));
}

// ---------------------------------------------------------------------------
// FullIdent
// ---------------------------------------------------------------------------

Bytes FullCiphertext::to_bytes() const {
  return concat(u.to_bytes(), v, w);
}

FullCiphertext FullCiphertext::from_bytes(const SystemParams& params,
                                          BytesView b) {
  const std::size_t point_len = params.curve()->compressed_size();
  const std::size_t n = params.message_len;
  if (b.size() != point_len + 2 * n) {
    throw InvalidArgument("FullCiphertext::from_bytes: wrong length");
  }
  return FullCiphertext{
      params.curve()->decompress(b.subspan(0, point_len)),
      Bytes(b.begin() + point_len, b.begin() + point_len + n),
      Bytes(b.begin() + point_len + n, b.end())};
}

FullCiphertext full_encrypt(const SystemParams& params,
                            std::string_view identity, BytesView message,
                            RandomSource& rng) {
  if (message.size() != params.message_len) {
    throw InvalidArgument("full_encrypt: message must be message_len bytes");
  }
  const std::size_t n = params.message_len;
  const Point q_id = map_identity(params, identity);

  Bytes sigma(n);
  rng.fill(sigma);
  const BigInt r = derive_r(sigma, message, params.order());

  EncryptCore core = encrypt_core(params, q_id, r);
  return FullCiphertext{std::move(core.u),
                        xor_bytes(sigma, mask_from_g(core.mask, n)),
                        xor_bytes(message, mask_from_sigma(sigma, n))};
}

Bytes full_decrypt_with_mask(const SystemParams& params, const Fp2& g_r,
                             const FullCiphertext& ct) {
  const std::size_t n = params.message_len;
  if (ct.v.size() != n || ct.w.size() != n) {
    throw InvalidArgument("full_decrypt: wrong ciphertext body length");
  }
  const Bytes sigma = xor_bytes(ct.v, mask_from_g(g_r, n));
  const Bytes message = xor_bytes(ct.w, mask_from_sigma(sigma, n));

  // Fujisaki–Okamoto validity check: re-derive r and verify U = rP.
  const BigInt r = derive_r(sigma, message, params.order());
  if (!(params.group.mul_g(r) == ct.u)) {
    throw DecryptionError("FullIdent: ciphertext validity check failed");
  }
  return message;
}

Bytes full_decrypt(const SystemParams& params, const Point& private_key,
                   const FullCiphertext& ct) {
  return full_decrypt_with_mask(
      params, params.group.pairing->pair(ct.u, private_key), ct);
}

}  // namespace medcrypt::ibe

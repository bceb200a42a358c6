#include "elgamal/fo_transform.h"

#include "common/error.h"
#include "hash/kdf.h"

namespace medcrypt::elgamal {

namespace {

// Splits <U, body> with U compressed and the body `parts` message-length
// fields; throws InvalidArgument on any other length.
Point decode_u(const Params& params, BytesView b, std::size_t parts) {
  const std::size_t point_len = params.group.curve->compressed_size();
  if (b.size() != point_len + parts * params.message_len) {
    throw InvalidArgument("ciphertext from_bytes: wrong length");
  }
  return params.group.curve->decompress(b.subspan(0, point_len));
}

}  // namespace

Bytes CpaCiphertext::to_bytes() const { return concat(u.to_bytes(), v); }

CpaCiphertext CpaCiphertext::from_bytes(const Params& params, BytesView b) {
  const std::size_t n = params.message_len;
  Point u = decode_u(params, b, 1);
  return CpaCiphertext{std::move(u), Bytes(b.end() - n, b.end())};
}

Bytes FoCiphertext::to_bytes() const { return concat(u.to_bytes(), v, w); }

FoCiphertext FoCiphertext::from_bytes(const Params& params, BytesView b) {
  const std::size_t n = params.message_len;
  Point u = decode_u(params, b, 2);
  return FoCiphertext{std::move(u), Bytes(b.end() - 2 * n, b.end() - n),
                      Bytes(b.end() - n, b.end())};
}

BigInt derive_r(const FoDomains& h, BytesView sigma, BytesView message,
                const BigInt& q) {
  // Length-prefix σ to make the (σ, M) encoding injective.
  Bytes data;
  data.reserve(4 + sigma.size() + message.size());
  append_framed(data, sigma);
  data.insert(data.end(), message.begin(), message.end());
  // H3 must land in [1, q-1]: r = 0 would make U = O and leak σ.
  BigInt r = hash::hash_to_range(h.h3, data, q);
  if (r.is_zero()) r = BigInt(1);
  return r;
}

Bytes sigma_mask(const FoDomains& h, BytesView sigma, std::size_t n) {
  return hash::expand(h.h4, sigma, n);
}

void check_message(const Params& params, BytesView message) {
  if (message.size() != params.message_len) {
    throw InvalidArgument("encrypt: message must be message_len bytes");
  }
}

Bytes cpa_open(const Params& params, BytesView mask, const CpaCiphertext& ct) {
  if (ct.v.size() != params.message_len) {
    throw InvalidArgument("decrypt: wrong ciphertext body length");
  }
  return xor_bytes(ct.v, mask);
}

Bytes fo_open(const Params& params, const FoDomains& h, BytesView mask,
              const FoCiphertext& ct) {
  const std::size_t n = params.message_len;
  if (ct.v.size() != n || ct.w.size() != n) {
    throw InvalidArgument("decrypt: wrong ciphertext body length");
  }
  const Bytes sigma = xor_bytes(ct.v, mask);
  const Bytes message = xor_bytes(ct.w, sigma_mask(h, sigma, n));

  // Fujisaki–Okamoto validity check: re-derive r and verify U = rP.
  const BigInt r = derive_r(h, sigma, message, params.order());
  if (!(params.group.mul_g(r) == ct.u)) {
    throw DecryptionError("FO transform: ciphertext validity check failed");
  }
  return message;
}

}  // namespace medcrypt::elgamal

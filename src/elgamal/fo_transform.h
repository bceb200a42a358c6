// The hashed-ElGamal core and its Fujisaki–Okamoto transform [FO99],
// shared by Boneh–Franklin (ibe/boneh_franklin.h: BasicIdent, FullIdent)
// and EC-ElGamal (elgamal/ec_elgamal.h: CPA, FO). A scheme supplies only
// its KEM: on encryption, kem(r) = H(K) with K derived from the
// encryption randomness r; on decryption, the same mask recomputed from
// U. The core owns everything else:
//
//   CPA   r random,                  C = < rP, M ⊕ kem(r) >
//   FO    σ random, r = H3(σ, M),    C = < rP, σ ⊕ kem(r), M ⊕ H4(σ) >
//         open: σ = V ⊕ mask, M = W ⊕ H4(σ); accept iff U = H3(σ, M)·P
//
// BF FullIdent is this transform over BasicIdent, whose K = ê(P_pub,
// Q_ID)^r lives in G_T [BF01 §4.2]; FO-ElGamal is it over K = r·Y in G1
// (paper §4, last paragraph). Opening takes the mask, not a key, so the
// threshold and mediated variants hand in a mask from a recombined K.
#pragma once

#include <string_view>

#include "ec/point.h"
#include "pairing/param_gen.h"

namespace medcrypt::elgamal {

using bigint::BigInt;
using ec::Point;

/// Public parameters: a prime-order group and the plaintext size.
struct Params {
  pairing::ParamSet group;
  std::size_t message_len = 32;

  const BigInt& order() const { return group.order(); }
};

/// A scheme's random-oracle domains for H3 and H4.
struct FoDomains {
  std::string_view h3;
  std::string_view h4;
};

/// CPA ciphertext <U, V>.
struct CpaCiphertext {
  Point u;
  Bytes v;

  Bytes to_bytes() const;
  static CpaCiphertext from_bytes(const Params& params, BytesView b);
};

/// FO ciphertext <U, V, W>.
struct FoCiphertext {
  Point u;
  Bytes v;
  Bytes w;

  Bytes to_bytes() const;
  static FoCiphertext from_bytes(const Params& params, BytesView b);
};

/// H3: (σ, M) -> r in [1, q-1].
BigInt derive_r(const FoDomains& h, BytesView sigma, BytesView message,
                const BigInt& q);

/// H4: the σ-derived message mask.
Bytes sigma_mask(const FoDomains& h, BytesView sigma, std::size_t n);

/// Throws InvalidArgument unless `message` is message_len bytes.
void check_message(const Params& params, BytesView message);

/// CPA seal. `kem(r)` returns the message_len-byte mask.
template <class Kem>
CpaCiphertext cpa_seal(const Params& params, BytesView message,
                       RandomSource& rng, const Kem& kem) {
  check_message(params, message);
  const BigInt r = BigInt::random_unit(rng, params.order());
  return CpaCiphertext{params.group.mul_g(r), xor_bytes(message, kem(r))};
}

/// CPA open: M = V ⊕ mask. No integrity check.
Bytes cpa_open(const Params& params, BytesView mask, const CpaCiphertext& ct);

/// FO seal. `kem(r)` returns the message_len-byte mask.
template <class Kem>
FoCiphertext fo_seal(const Params& params, const FoDomains& h,
                     BytesView message, RandomSource& rng, const Kem& kem) {
  check_message(params, message);
  const std::size_t n = params.message_len;
  Bytes sigma(n);
  rng.fill(sigma);
  const BigInt r = derive_r(h, sigma, message, params.order());
  return FoCiphertext{params.group.mul_g(r), xor_bytes(sigma, kem(r)),
                      xor_bytes(message, sigma_mask(h, sigma, n))};
}

/// FO open. Throws DecryptionError when the validity check fails.
Bytes fo_open(const Params& params, const FoDomains& h, BytesView mask,
              const FoCiphertext& ct);

}  // namespace medcrypt::elgamal

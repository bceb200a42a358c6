// The Boneh–Franklin identity-based encryption scheme [BF01], in both
// variants the paper builds on:
//
//   BasicIdent  (IND-ID-CPA)  C = < rP, m ⊕ H2(ê(P_pub, Q_ID)^r) >
//   FullIdent   (IND-ID-CCA)  Fujisaki–Okamoto transform of BasicIdent:
//       σ random, r = H3(σ, M),
//       C = < rP, σ ⊕ H2(g^r), M ⊕ H4(σ) >  with g = ê(P_pub, Q_ID)
//
// The mediated scheme of §4 encrypts exactly like FullIdent; its
// decryption splits the computation of g_r = ê(U, d_ID) between user and
// SEM. To support that split, the FullIdent unmasking step is exposed
// separately (full_decrypt_with_mask).
//
// All random oracles are domain-separated SHA-256 constructions:
//   H1 : identities -> G1        (ec::hash_to_subgroup, domain "BF.H1")
//   H2 : G2 -> {0,1}^n           (kdf::expand over the Fp2 serialization)
//   H3 : {0,1}^n x {0,1}^n -> Zq (kdf::hash_to_range)
//   H4 : {0,1}^n -> {0,1}^n      (kdf::expand)
#pragma once

#include <string_view>

#include "ec/point.h"
#include "field/fp2.h"
#include "pairing/param_gen.h"
#include "pairing/tate.h"

namespace medcrypt::ibe {

using bigint::BigInt;
using ec::Point;
using field::Fp2;

/// Public system parameters published by the PKG: the pairing group, the
/// public point P_pub = sP, and the plaintext length n.
struct SystemParams {
  pairing::ParamSet group;
  Point p_pub;
  std::size_t message_len = 32;

  const ec::Curve* curve() const { return group.curve; }
  const Point& generator() const { return group.generator; }
  const BigInt& order() const { return group.order(); }
};

/// H1: maps an identity string to Q_ID in G1.
Point map_identity(const SystemParams& params, std::string_view identity);

/// H2: masks derived from pairing values.
Bytes mask_from_g(const Fp2& g, std::size_t n);

/// H3: (sigma, message) -> r in Z_q. FullIdent's encryption randomness.
BigInt derive_r(BytesView sigma, BytesView message, const BigInt& q);

/// H4: sigma-derived message mask.
Bytes mask_from_sigma(BytesView sigma, std::size_t n);

// ---------------------------------------------------------------------------
// BasicIdent
// ---------------------------------------------------------------------------

/// BasicIdent ciphertext <U, V>.
struct BasicCiphertext {
  Point u;
  Bytes v;

  Bytes to_bytes() const;
  static BasicCiphertext from_bytes(const SystemParams& params, BytesView b);
};

/// Encrypts `message` (must be exactly params.message_len bytes) for
/// `identity`. IND-ID-CPA only — malleable by construction.
BasicCiphertext basic_encrypt(const SystemParams& params,
                              std::string_view identity, BytesView message,
                              RandomSource& rng);

/// Decrypts with the full private key d_ID = s·Q_ID. Never fails on
/// well-formed ciphertexts (no integrity: wrong keys give garbage).
Bytes basic_decrypt(const SystemParams& params, const Point& private_key,
                    const BasicCiphertext& ct);

// ---------------------------------------------------------------------------
// FullIdent
// ---------------------------------------------------------------------------

/// FullIdent ciphertext <U, V, W>.
struct FullCiphertext {
  Point u;
  Bytes v;
  Bytes w;

  Bytes to_bytes() const;
  static FullCiphertext from_bytes(const SystemParams& params, BytesView b);
};

/// Encrypts `message` (exactly params.message_len bytes) for `identity`.
FullCiphertext full_encrypt(const SystemParams& params,
                            std::string_view identity, BytesView message,
                            RandomSource& rng);

/// Decrypts with the full private key; throws DecryptionError if the
/// Fujisaki–Okamoto validity check U = H3(σ, M)·P fails.
Bytes full_decrypt(const SystemParams& params, const Point& private_key,
                   const FullCiphertext& ct);

/// The unmasking half of FullIdent decryption, given the pairing value
/// g_r = ê(U, d_ID) however it was obtained (directly, or recombined from
/// SEM + user tokens in the mediated scheme, or from threshold shares).
/// Performs the same validity check as full_decrypt.
Bytes full_decrypt_with_mask(const SystemParams& params, const Fp2& g_r,
                             const FullCiphertext& ct);

}  // namespace medcrypt::ibe

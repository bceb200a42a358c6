// The Boneh–Franklin identity-based encryption scheme [BF01], in both
// variants the paper builds on: BasicIdent (IND-ID-CPA) and FullIdent
// (IND-ID-CCA) are the hashed-ElGamal core's CPA and FO seals
// (elgamal/fo_transform.h) over BF's KEM, whose value lives in G_T:
// H2(g_ID^r) with g_ID = ê(P_pub, Q_ID) on encryption, H2(ê(U, d_ID)) on
// decryption. The mediated scheme of §4 encrypts like FullIdent and
// splits ê(U, d_ID) between user and SEM, hence full_decrypt_with_mask.
//
// Random oracles (domain-separated SHA-256): H1 identities -> G1
// ("BF.H1", ec::hash_to_subgroup), H2 G_T -> {0,1}^n ("BF.H2" over the
// Fp2 serialization), H3 and H4 in the core ("BF.H3", "BF.H4").
#pragma once

#include <string_view>

#include "elgamal/fo_transform.h"
#include "field/fp2.h"

namespace medcrypt::ibe {

using bigint::BigInt;
using ec::Point;
using field::Fp2;

/// Public system parameters published by the PKG: the core's parameters
/// (the pairing group and the plaintext length n) plus the public point
/// P_pub = sP.
struct SystemParams : elgamal::Params {
  SystemParams() = default;
  SystemParams(pairing::ParamSet group_, Point p_pub_,
               std::size_t message_len_ = 32)
      : elgamal::Params{std::move(group_), message_len_},
        p_pub(std::move(p_pub_)) {}

  Point p_pub;

  const ec::Curve* curve() const { return group.curve; }
  const Point& generator() const { return group.generator; }
};

/// H3/H4 domains of FullIdent.
inline constexpr elgamal::FoDomains kBfDomains{"BF.H3", "BF.H4"};

/// BasicIdent ciphertext <U, V> and FullIdent ciphertext <U, V, W>.
using BasicCiphertext = elgamal::CpaCiphertext;
using FullCiphertext = elgamal::FoCiphertext;

/// H1: maps an identity string to Q_ID in G1.
Point map_identity(const SystemParams& params, std::string_view identity);

/// H2: masks derived from pairing values.
Bytes mask_from_g(const Fp2& g, std::size_t n);

/// Encrypts `message` (must be exactly params.message_len bytes) for
/// `identity`. IND-ID-CPA only — malleable by construction.
BasicCiphertext basic_encrypt(const SystemParams& params,
                              std::string_view identity, BytesView message,
                              RandomSource& rng);

/// Decrypts with the full private key d_ID = s·Q_ID. Never fails on
/// well-formed ciphertexts (no integrity: wrong keys give garbage).
Bytes basic_decrypt(const SystemParams& params, const Point& private_key,
                    const BasicCiphertext& ct);

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

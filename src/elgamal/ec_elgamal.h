// Hashed elliptic-curve ElGamal — the "ordinary" (non-identity-based)
// cryptosystem the paper's generic claim covers: any scheme with a
// 2-out-of-2 threshold decryption supports a SEM (§4, last paragraphs).
//
//   Keygen   x ∈ Z_q, Y = xP
//   KEM      encrypt: H(r·Y); decrypt: H(S) with S = x·U
//
// The CPA and FO variants are the hashed-ElGamal core
// (elgamal/fo_transform.h) over this KEM, with H3/H4 domains
// "EG.H3"/"EG.H4". The shared-secret point S = x·U is the
// threshold-friendly quantity: with x = Σ x_i, partial decryptions x_i·U
// combine by point addition / Lagrange, never revealing x.
#pragma once

#include "elgamal/fo_transform.h"

namespace medcrypt::elgamal {

/// H3/H4 domains of FO-ElGamal.
inline constexpr FoDomains kEgDomains{"EG.H3", "EG.H4"};

/// ElGamal key pair. The secret scalar is wiped on destruction.
struct KeyPair {
  KeyPair() = default;
  KeyPair(BigInt secret_, Point pub_)
      : secret(std::move(secret_)), pub(std::move(pub_)) {}
  KeyPair(const KeyPair&) = default;
  KeyPair(KeyPair&&) = default;
  KeyPair& operator=(const KeyPair&) = default;
  KeyPair& operator=(KeyPair&&) = default;
  ~KeyPair() { secret.wipe(); }

  BigInt secret;  // x
  Point pub;      // Y = xP
};

/// Samples a key pair.
KeyPair keygen(const Params& params, RandomSource& rng);

/// Hashed-ElGamal encryption (IND-CPA under CDH in the random oracle
/// model).
CpaCiphertext cpa_encrypt(const Params& params, const Point& pub,
                          BytesView message, RandomSource& rng);

/// Decrypts with the full secret; no integrity check.
Bytes cpa_decrypt(const Params& params, const BigInt& secret,
                  const CpaCiphertext& ct);

/// IND-CCA encryption (random oracle model, per [11]).
FoCiphertext fo_encrypt(const Params& params, const Point& pub,
                        BytesView message, RandomSource& rng);

/// Decrypts with the full secret; throws DecryptionError when the
/// validity check fails.
Bytes fo_decrypt(const Params& params, const BigInt& secret,
                 const FoCiphertext& ct);

/// Decryption given the shared point S = x·U (recombined from threshold
/// shares or from SEM + user partial decryptions). Same validity check.
Bytes fo_decrypt_with_shared(const Params& params, const Point& shared,
                             const FoCiphertext& ct);

}  // namespace medcrypt::elgamal

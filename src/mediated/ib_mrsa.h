// IB-mRSA — identity-based mediated RSA (paper §2, after [3], [9]).
// The baseline the pairing-based schemes are compared against. Decryption
// and signing run the half-exponent protocol of mrsa.h; this header holds
// only what is identity-based.
//
//   Setup: the PKG generates a COMMON k-bit Blum modulus n = pq from safe
//     primes p = 2p'+1, q = 2q'+1 and publishes (n, H).
//   Keygen for identity ID:
//     e_ID = 0^s || H(ID) || 1      (s = k - l - 1; trailing 1 makes it
//                                    odd, so coprime to φ(n) w.h.p.)
//     d_ID = e_ID^{-1} mod φ(n);  d_user random, d_sem = d_ID - d_user.
//   Encrypt: RSA-OAEP under (n, e_ID) — senders derive e_ID themselves.
//   Sign: FDH under the "IBmRSA.FDH" domain.
//
// Security notes carried into tests:
//   - no single user knows a full (e, d) pair, so the common modulus is
//     safe *unless* a user corrupts the SEM — then d = d_user + d_sem
//     factors n (rsa::factor_from_exponents) and EVERY identity breaks.
//     This is the paper's central criticism of IB-mRSA (§2, §4).
//   - the SEM must therefore be a fully trusted entity here, unlike the
//     mediated pairing schemes.
#pragma once

#include <string_view>

#include "mediated/mrsa.h"

namespace medcrypt::mediated {

/// FDH domain of IB-mRSA signatures, separated from per-user mRSA's.
inline constexpr std::string_view kIbMRsaFdhDomain = "IBmRSA.FDH";

/// IB-mRSA public parameters: the common modulus and the hash width l.
struct IbMRsaParams {
  BigInt modulus;
  std::size_t modulus_bits = 0;
  std::size_t hash_bits = 0;  // l

  std::size_t byte_size() const { return (modulus_bits + 7) / 8; }
};

/// Derives the identity public exponent e_ID = 0^s || H(ID) || 1.
BigInt identity_exponent(const IbMRsaParams& params, std::string_view identity);

/// Sender-side encryption: RSA-OAEP under (n, e_ID). Message length is
/// bounded by rsa::oaep_max_message(byte_size()).
Bytes ib_mrsa_encrypt(const IbMRsaParams& params, std::string_view identity,
                      BytesView message, RandomSource& rng);

/// Verifier-side signature check: σ^{e_ID} = FDH(M).
bool ib_mrsa_verify(const IbMRsaParams& params, std::string_view identity,
                    BytesView message, const BigInt& signature);

/// The IB-mRSA PKG/CA: owns the factorization of the common modulus.
class IbMRsaSystem {
 public:
  struct Options {
    std::size_t modulus_bits = 1024;
    std::size_t hash_bits = 160;
    /// Safe primes are what the paper specifies; tests may disable them
    /// to keep reduced-parameter keygen fast.
    bool safe_primes = true;
  };

  IbMRsaSystem(const Options& options, RandomSource& rng);

  const IbMRsaParams& params() const { return params_; }

  /// Keygen: the public key (n, e_ID) and the two exponent halves. Throws
  /// Error in the negligible event that e_ID divides φ(n).
  MRsaKeys issue(std::string_view identity, RandomSource& rng) const;

  /// The full private exponent (tests only; a deployment never extracts
  /// this).
  BigInt full_exponent(std::string_view identity) const;

  /// Wipes φ(n) — with the public modulus it is equivalent to the
  /// factorization of n, i.e. every user's key at once.
  ~IbMRsaSystem() { phi_.wipe(); }
  IbMRsaSystem(const IbMRsaSystem&) = default;
  IbMRsaSystem(IbMRsaSystem&&) = default;
  IbMRsaSystem& operator=(const IbMRsaSystem&) = default;
  IbMRsaSystem& operator=(IbMRsaSystem&&) = default;

 private:
  IbMRsaParams params_;
  BigInt phi_;
};

/// PKG-side enrollment: issues the identity's key, installs the SEM half
/// (with its own copy of the common modulus) and returns the user
/// endpoint.
MRsaUser enroll_mrsa_user(const IbMRsaSystem& system, MRsaMediator& sem,
                          std::string identity, RandomSource& rng);

}  // namespace medcrypt::mediated

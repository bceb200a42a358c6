// (t, n) threshold decryption for FO-ElGamal — the paper's generic
// "any threshold cryptosystem yields a mediated one" substrate (§4 end),
// with the (2, 2) case powering mediated ElGamal.
//
//   Setup    dealer shares x; verification keys Y_i = x_i·P; Y = x·P.
//   Decrypt  player i outputs the partial point S_i = x_i·C1;
//            (optionally checked via ê(P, S_i) = ê(Y_i, C1) — our group
//            is pairing-friendly, so share verification is free);
//            S = Σ L_i S_i = x·C1 feeds fo_decrypt_with_shared.
#pragma once

#include <vector>

#include "elgamal/fo_transform.h"
#include "shamir/shamir.h"

namespace medcrypt::threshold {

using bigint::BigInt;
using ec::Point;

/// One player's ElGamal key share x_i = f(i). Wiped on destruction.
struct ElGamalKeyShare {
  ElGamalKeyShare() = default;
  ElGamalKeyShare(std::uint32_t index_, BigInt value_)
      : index(index_), value(std::move(value_)) {}
  ElGamalKeyShare(const ElGamalKeyShare&) = default;
  ElGamalKeyShare(ElGamalKeyShare&&) = default;
  ElGamalKeyShare& operator=(const ElGamalKeyShare&) = default;
  ElGamalKeyShare& operator=(ElGamalKeyShare&&) = default;
  ~ElGamalKeyShare() { value.wipe(); }

  std::uint32_t index = 0;
  BigInt value;
};

/// Public output of the threshold ElGamal setup.
struct ElGamalSetup {
  elgamal::Params params;
  std::size_t threshold = 0;
  std::size_t players = 0;
  Point public_key;                      // Y = x·P
  std::vector<Point> verification_keys;  // Y_i = x_i·P

  const Point& verification_key(std::uint32_t index) const;
};

/// Dealer output.
struct ElGamalDealing {
  ElGamalSetup setup;
  std::vector<ElGamalKeyShare> shares;
};

/// Runs the trusted-dealer setup.
ElGamalDealing elgamal_threshold_setup(elgamal::Params params, std::size_t t,
                                       std::size_t n, RandomSource& rng);

/// A partial decryption S_i = x_i·C1.
struct ElGamalDecryptionShare {
  std::uint32_t index = 0;
  Point value;
};

/// Player-side partial decryption.
ElGamalDecryptionShare elgamal_decrypt_share(const ElGamalKeyShare& share,
                                             const Point& c1);

/// Pairing-based share check: S_i ∈ G1 \ {O} and ê(P, S_i) = ê(Y_i, C1).
bool elgamal_verify_share(const ElGamalSetup& setup, const Point& c1,
                          const ElGamalDecryptionShare& share);

/// Combines exactly t distinct shares into S = x·C1.
Point elgamal_combine_shares(const ElGamalSetup& setup,
                             std::span<const ElGamalDecryptionShare> shares);

}  // namespace medcrypt::threshold

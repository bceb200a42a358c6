// (t, n) threshold decryption for FO-ElGamal — the paper's generic
// "any threshold cryptosystem yields a mediated one" substrate (§4 end).
// Mediated ElGamal (mediated/mediated_elgamal.h) does not build on it:
// it splits x additively, x = x_user + x_sem, with no Lagrange step.
//
//   Setup    dealer shares x; verification keys Y_i = x_i·P; Y = x·P.
//   Decrypt  player i outputs the partial point S_i = x_i·U;
//            (optionally checked via ê(P, S_i) = ê(Y_i, U) — our group
//            is pairing-friendly, so share verification is free);
//            S = Σ L_i S_i = x·U feeds fo_decrypt_with_shared.
#pragma once

#include <vector>

#include "elgamal/ec_elgamal.h"
#include "threshold/threshold_keys.h"

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

/// Public output of the threshold ElGamal setup; its verification keys
/// (ThresholdKeys) are Y_i = x_i·P.
struct ElGamalSetup : ThresholdKeys {
  elgamal::Params params;
  Point public_key;  // Y = x·P
};

/// Dealer output.
struct ElGamalDealing {
  ElGamalSetup setup;
  std::vector<ElGamalKeyShare> shares;
};

/// Runs the trusted-dealer setup.
ElGamalDealing elgamal_threshold_setup(elgamal::Params params, std::size_t t,
                                       std::size_t n, RandomSource& rng);

/// A partial decryption S_i = x_i·U.
struct ElGamalDecryptionShare {
  std::uint32_t index = 0;
  Point value;
};

/// Player-side partial decryption. Throws InvalidArgument unless
/// U ∈ G1 \ {O}: x_i·T for T of order dividing h would leak x_i mod
/// that order.
ElGamalDecryptionShare elgamal_decrypt_share(const ElGamalKeyShare& share,
                                             const Point& u);

/// Pairing-based share check: S_i ∈ G1 \ {O} and ê(P, S_i) = ê(Y_i, U).
bool elgamal_verify_share(const ElGamalSetup& setup, const Point& u,
                          const ElGamalDecryptionShare& share);

/// Combines exactly t shares with distinct indices in [1, n] into
/// S = x·U. Throws InvalidArgument otherwise.
Point elgamal_combine_shares(const ElGamalSetup& setup,
                             std::span<const ElGamalDecryptionShare> shares);

}  // namespace medcrypt::threshold

// Boldyreva's (t, n) threshold GDH signature [2] — the building block the
// paper cites for the mediated GDH signature (§5, §6).
//
//   Setup    dealer shares x: player i gets x_i = f(i), verification key
//            R_i = x_i·P; the group public key is R = x·P.
//   Sign     player i outputs the signature share σ_i = x_i·h(M).
//   Share verification: ê(P, σ_i) = ê(R_i, h(M)) (a DDH check — this is
//            what makes the scheme robust without extra proofs).
//   Combine  σ = Σ L_i σ_i over any t valid shares; σ verifies under R
//            exactly like an ordinary GDH signature.
#pragma once

#include <vector>

#include "gdh/bls.h"
#include "threshold/threshold_keys.h"

namespace medcrypt::threshold {

using bigint::BigInt;
using ec::Point;

/// One signer's key share. The scalar is wiped on destruction.
struct GdhKeyShare {
  GdhKeyShare() = default;
  GdhKeyShare(std::uint32_t index_, BigInt value_)
      : index(index_), value(std::move(value_)) {}
  GdhKeyShare(const GdhKeyShare&) = default;
  GdhKeyShare(GdhKeyShare&&) = default;
  GdhKeyShare& operator=(const GdhKeyShare&) = default;
  GdhKeyShare& operator=(GdhKeyShare&&) = default;
  ~GdhKeyShare() { value.wipe(); }

  std::uint32_t index = 0;
  BigInt value;  // x_i = f(i)
};

/// Public output of the threshold GDH setup; its verification keys
/// (ThresholdKeys) are R_i = x_i·P.
struct GdhSetup : ThresholdKeys {
  pairing::ParamSet group;
  Point public_key;  // R = x·P
};

/// Dealer output: the public setup plus the private key shares.
struct GdhDealing {
  GdhSetup setup;
  std::vector<GdhKeyShare> shares;
};

/// Runs the trusted-dealer setup.
GdhDealing gdh_threshold_setup(pairing::ParamSet group, std::size_t t,
                               std::size_t n, RandomSource& rng);

/// A signature share σ_i = x_i·h(M).
struct GdhSignatureShare {
  std::uint32_t index = 0;
  Point value;
};

/// Player-side signing.
GdhSignatureShare gdh_sign_share(const GdhSetup& setup,
                                 const GdhKeyShare& share, BytesView message);

/// Robustness check: ê(P, σ_i) = ê(R_i, h(M)) with σ_i ∈ G1 \ {O} —
/// gdh::verify of σ_i under R_i.
bool gdh_verify_share(const GdhSetup& setup, BytesView message,
                      const GdhSignatureShare& share);

/// Combines exactly t shares with distinct indices in [1, n] into the
/// group signature, which verifies under setup.public_key via
/// gdh::verify. Throws InvalidArgument otherwise.
Point gdh_combine_shares(const GdhSetup& setup,
                         std::span<const GdhSignatureShare> shares);

}  // namespace medcrypt::threshold

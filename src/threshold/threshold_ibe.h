// The (t, n) threshold Boneh–Franklin IBE of paper §3.
//
// Setup (trusted-dealer PKG):
//   f(x) = s + a_1 x + ... + a_{t-1} x^{t-1}, random a_i ∈ Z_q
//   verification keys P_pub^(i) = f(i)·P, public P_pub = s·P
//   players can check Σ_{i∈S} L_i P_pub^(i) = P_pub for any |S| = t
//
// Keygen: player i gets d_IDi = f(i)·Q_ID and verifies
//   ê(P_pub^(i), Q_ID) = ê(P, d_IDi); on failure he complains and the
//   PKG re-issues (modeled as an exception here).
//
// Decrypt: player i publishes the decryption share ê(U, d_IDi); the
// recombiner picks t acceptable shares and computes
//   g = Π ê(U, d_IDi)^{L_i} = ê(U, s·Q_ID),
// then unmasks like the non-threshold scheme. Robust mode (§3.2) attaches
// a NIZK proof to every share — see threshold/robust.h.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "ibe/boneh_franklin.h"
#include "threshold/robust.h"
#include "threshold/threshold_keys.h"

namespace medcrypt::threshold {

using bigint::BigInt;
using ec::Point;
using field::Fp2;

/// One player's private key share d_IDi = f(i)·Q_ID, with its public
/// Y1 = ê(P, d_IDi), the value the §3.2 prover hashes into every proof
/// and raises to its nonce (w1 = Y1^k).
/// Y1 equals ê(P_pub^(i), Q_ID), which anyone can compute, and is fixed
/// by the share, so it is formed with the share (one prepared replay of
/// P) and never recomputed per ciphertext. The share point is wiped on
/// destruction (t of these recombine to the full identity key).
struct KeyShare {
  KeyShare() = default;
  /// Forms player `index_`'s share `value_` and its Y1 over `group`.
  KeyShare(const pairing::ParamSet& group, std::uint32_t index_,
           Point value_);
  KeyShare(const KeyShare&) = default;
  KeyShare(KeyShare&&) = default;
  KeyShare& operator=(const KeyShare&) = default;
  KeyShare& operator=(KeyShare&&) = default;
  ~KeyShare() { value.wipe(); }

  std::uint32_t index = 0;
  Point value;
  Fp2 y1;
};

/// Public output of the threshold Setup: the BF system parameters plus
/// t, n and the per-player verification keys P_pub^(i) (ThresholdKeys),
/// each with its prepared Miller program: the combiner's Y1_i and the
/// Keygen check pair against P_pub^(i) on every call. The programs are
/// built once, by the constructor, from the keys it is given; the keys
/// must not change afterwards.
struct ThresholdSetup : ThresholdKeys {
  ThresholdSetup() = default;
  ThresholdSetup(ibe::SystemParams params_, ThresholdKeys keys);

  /// The prepared program of P_pub^(index). Throws InvalidArgument where
  /// verification_key does.
  const pairing::PreparedPairing& verification_program(
      std::uint32_t index) const;

  ibe::SystemParams params;
  std::shared_ptr<const std::vector<pairing::PreparedPairing>>
      verification_programs;
};

/// The trusted dealer (PKG) of the threshold scheme. Holds the secret
/// polynomial; normal deployments discard it after extracting key shares.
class ThresholdDealer {
 public:
  /// Runs Setup with threshold t out of n players.
  ThresholdDealer(pairing::ParamSet group, std::size_t message_len,
                  std::size_t t, std::size_t n, RandomSource& rng);

  const ThresholdSetup& setup() const { return setup_; }

  /// Keygen for one identity: the full share vector d_IDi = f(i)·Q_ID.
  std::vector<KeyShare> extract_shares(std::string_view identity) const;

  /// The full (unshared) private key — used by tests to cross-check
  /// recombination against direct decryption.
  Point extract_full_key(std::string_view identity) const;

  /// Wipes the secret polynomial f (f(0) = s is the master secret).
  ~ThresholdDealer() {
    for (auto& c : coefficients_) c.wipe();
  }
  ThresholdDealer(const ThresholdDealer&) = default;
  ThresholdDealer(ThresholdDealer&&) = default;
  ThresholdDealer& operator=(const ThresholdDealer&) = default;
  ThresholdDealer& operator=(ThresholdDealer&&) = default;

 private:
  std::vector<BigInt> coefficients_;  // f; coefficients_[0] = s
  ThresholdSetup setup_;
};

/// Player-side check on a received key share (paper §3 Keygen):
/// ê(P_pub^(i), Q_ID) = ê(P, d_IDi), run as the one product pairing
/// ê(P_pub^(i), Q_ID)·ê(P, −d_IDi) = 1. False for an index outside
/// [1, n].
bool verify_key_share(const ThresholdSetup& setup, std::string_view identity,
                      const KeyShare& share);

/// Public consistency check on the verification keys (paper §3 Setup):
/// Σ L_i P_pub^(i) = P_pub for the t-subset `indices`.
bool verify_setup_consistency(const ThresholdSetup& setup,
                              std::span<const std::uint32_t> indices);

/// One player's decryption share ê(U, d_IDi), optionally with the §3.2
/// robustness proof.
struct DecryptionShare {
  std::uint32_t index = 0;
  Fp2 value;
  std::optional<ShareProof> proof;
};

/// Computes player `share.index`'s decryption share for ciphertext
/// component U. With `prove`, attaches the NIZK of share correctness.
DecryptionShare compute_decryption_share(const ThresholdSetup& setup,
                                         const KeyShare& share, const Point& u,
                                         bool prove, RandomSource& rng);

/// Recombiner: combines exactly t acceptable shares into
/// g = ê(U, s·Q_ID). Throws InvalidArgument unless the indices pass
/// shamir::check_indices. Does NOT verify proofs — see
/// select_valid_shares for the robust pipeline.
Fp2 combine_decryption_shares(const ThresholdSetup& setup,
                              std::span<const DecryptionShare> shares);

/// Robust recombination front-end: verifies the shares' proofs against
/// the verification keys and returns the first t valid ones, in input
/// order. Shares without proofs, with an out-of-range index, or with an
/// index already seen earlier in `shares` are skipped. The first t
/// remaining shares are checked as one batch (robust.h); only if that
/// fails is each share checked on its own, which names the cheater.
/// Throws ProofError if fewer than t shares survive.
std::vector<DecryptionShare> select_valid_shares(
    const ThresholdSetup& setup, std::string_view identity, const Point& u,
    std::span<const DecryptionShare> shares);

/// Recovers the key share of player `target` from >= t honest key shares
/// (paper §3.2: cheater exclusion) by Lagrange interpolation in G1.
Point recover_key_share(const ThresholdSetup& setup,
                        std::span<const KeyShare> honest,
                        std::uint32_t target);

/// End-to-end helper: threshold decryption of a FullIdent ciphertext from
/// t shares (combines, then runs the FO validity check).
Bytes threshold_full_decrypt(const ThresholdSetup& setup,
                             std::span<const DecryptionShare> shares,
                             const ibe::FullCiphertext& ct);

}  // namespace medcrypt::threshold

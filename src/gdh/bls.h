// The GDH signature of Boneh, Lynn and Shacham [6] (paper §5).
//
// Over a Gap-Diffie-Hellman group (CDH hard, DDH easy via the pairing):
//   Keygen   x ∈ Z_q, R = xP
//   Sign     σ = x·h(M) with h : {0,1}* -> G1
//   Verify   (P, R, h(M), σ) is a DH tuple  ⇔  ê(P, σ) = ê(R, h(M))
//
// h(M) = h·H' where H' is the try-and-increment candidate and h the
// cofactor. verify() never clears that cofactor: with P~ = (h^-1 mod q)·P
// (ParamSet::inv_cofactor_generator), bilinearity gives the equivalent
// check ê(P~, σ)·ê(−R, H') = 1, because ê(−R, h·H') = ê(−R, H')^h and
// raising to h is a bijection on the order-q group G_T. The reduced Tate
// pairing accepts any point of E(F_p) as its second argument, so H' needs
// no cofactor multiplication (~2/3 of a hash at the paper's parameters).
// The one divergence is H' of order dividing h (probability ~1/q), where
// h(M) moves on to the next candidate: there only σ = O would pass, and
// σ = O is always rejected. So an honest signature fails with
// probability ~2^-160 at sec80, and no forgery is ever accepted.
//
// Signatures are single compressed G1 points — the "160-bit signature"
// (and the 160-bit SEM token of the mediated variant) the paper contrasts
// with 1024-bit mRSA transfers.
#pragma once

#include <span>
#include <string_view>

#include "ec/point.h"
#include "pairing/param_gen.h"

namespace medcrypt::gdh {

using bigint::BigInt;
using ec::Point;

/// GDH signature key pair. The secret scalar is wiped on destruction.
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
  Point pub;      // R = xP
};

/// Samples a key pair over `group`.
KeyPair keygen(const pairing::ParamSet& group, RandomSource& rng);

/// Hash domain of h(M) (ec::hash_to_subgroup's `domain`).
inline constexpr std::string_view kHashDomain = "GDH.h";

/// The message hash h : {0,1}* -> G1 (full-domain hash onto the subgroup).
/// Uncached: signers and verifiers hash in their own processes.
Point hash_message(const pairing::ParamSet& group, BytesView message);

/// The candidate H' of hash_message before cofactor clearing:
/// hash_message(M) = h·H'. A point of E(F_p), not of G1; only fit as the
/// second argument of a pairing whose first argument absorbs the h.
Point hash_candidate(const pairing::ParamSet& group, BytesView message);

/// Signs: σ = x·h(M).
Point sign(const pairing::ParamSet& group, const BigInt& secret,
           BytesView message);

/// Verifies via the DDH check ê(P, σ) = ê(R, h(M)), in its cofactor-free
/// form ê(P~, σ)·ê(−R, H') = 1 (see the header comment). Rejects σ = O
/// and σ outside G1.
bool verify(const pairing::ParamSet& group, const Point& pub,
            BytesView message, const Point& signature);

/// The same check against an already computed h = hash_message(M): the
/// standard ê(P, σ)·ê(−R, h) = 1, with no hashing. For signers that
/// hold h(M) anyway (the mediated user's final check).
bool verify_prehashed(const pairing::ParamSet& group, const Point& pub,
                      const Point& h, const Point& signature);

/// Checks σ = Σ x_i·h(M_i) for keys R_i = x_i·P given each message's
/// candidate H'_i = hash_candidate(M_i): ê(P~, σ)·Π ê(−R_i, H'_i) = 1 as
/// one product pairing. verify() is the n = 1 case; aggregate verifiers
/// add their distinct-statement guard on top. Sizes must match.
bool verify_candidates(const pairing::ParamSet& group,
                       std::span<const Point> pubs,
                       std::span<const Point> candidates,
                       const Point& signature);

/// Additive 2-of-2 key split for the mediated variant (§5):
/// x = x_user + x_sem (mod q). Returns {x_user, x_sem}.
std::pair<BigInt, BigInt> split_key(const BigInt& secret, const BigInt& q,
                                    RandomSource& rng);

}  // namespace medcrypt::gdh

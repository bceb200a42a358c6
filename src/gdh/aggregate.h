// GDH signature extensions from the paper's cited building blocks:
// Boldyreva [2] (multisignatures, blind signatures) and the
// Boneh–Lynn–Shacham line [6] (aggregation).
//
//   Multisignature (same message, k signers):
//     σ = Σ σ_i verifies under the aggregate key Σ R_i — one pairing
//     equation regardless of k. This is the algebra that makes both the
//     threshold (§5) and mediated GDH schemes work.
//
//   Aggregate signature (distinct messages):
//     agg = Σ σ_i; verify ê(P, agg) = Π ê(R_i, h(M_i)), run as one
//     cofactor-free product pairing (gdh::verify_candidates). The (key,
//     message) pairs must be distinct (classic rogue-aggregation
//     restriction) — enforced here.
//
//   Blind signature (Boldyreva):
//     requester blinds h(M) as h' = h(M) + r·P; the signer returns
//     x·h'; the requester unblinds σ = x·h' - r·R. The signer — or a
//     SEM issuing the signer's half — learns nothing about M, yet σ is
//     an ordinary GDH signature. Combined with a SEM this gives
//     *revocable blind signing*: the mediator can cut a signer off
//     without ever seeing what is being signed.
#pragma once

#include <span>
#include <vector>

#include "gdh/bls.h"

namespace medcrypt::gdh {

/// One (public key, message) statement of an aggregate.
struct AggregateEntry {
  Point pub;
  Bytes message;
};

/// Sums signatures; throws InvalidArgument on an empty list.
Point aggregate_signatures(const pairing::ParamSet& group,
                           std::span<const Point> signatures);

/// Verifies an aggregate over distinct (pub, message) statements.
/// Returns false on duplicates (rogue-aggregation guard) or mismatch.
bool verify_aggregate(const pairing::ParamSet& group,
                      std::span<const AggregateEntry> entries,
                      const Point& aggregate);

/// Aggregate public key Σ R_i for a same-message multisignature.
Point multisig_key(const pairing::ParamSet& group,
                   std::span<const Point> keys);

/// Verifies a multisignature: Σ σ_i under Σ R_i, one message.
bool verify_multisig(const pairing::ParamSet& group,
                     std::span<const Point> keys, BytesView message,
                     const Point& signature);

/// Requester-side blinding state.
struct BlindingState {
  bigint::BigInt r;
  Point blinded;  // h(M) + r·P — what the signer sees
};

/// Blinds a message hash with fresh randomness.
BlindingState blind_message(const pairing::ParamSet& group, BytesView message,
                            RandomSource& rng);

/// Signer side: x · blinded (the signer never sees M).
Point sign_blinded(const bigint::BigInt& secret, const Point& blinded);

/// Requester side: removes the blinding; the result is a standard GDH
/// signature on the original message under `pub`.
Point unblind_signature(const pairing::ParamSet& group,
                        const BlindingState& state, const Point& pub,
                        const Point& blind_signature);

}  // namespace medcrypt::gdh

// Hashing arbitrary strings onto the order-q subgroup G1 — the paper's
// random oracle H1 : {0,1}* -> G1*.
//
// Try-and-increment: derive a candidate x-coordinate from
// SHA-256(domain, counter, input), test the curve equation, take a square
// root, then clear the cofactor. The output is never the identity.
//
// The entry points share one candidate derivation (identical outputs,
// pinned by the golden-vector test). With p ≡ 3 (mod 4) it fuses the
// Legendre test into the sqrt: one exponentiation s = rhs^((p+1)/4) plus
// a cheap s^2 == rhs check replaces the separate Euler-criterion power.
//   - hash_to_subgroup: the candidate, cofactor-cleared by the ladder.
//   - hash_to_curve_candidate: the same candidate without the cofactor
//     multiplication (most of the hash at the paper's parameters), for
//     pairing-based verifiers that absorb the cofactor elsewhere.
//   - hash_to_subgroup_cached: consults the process-wide identity-point
//     LRU (src/ec/identity_cache.h) before computing. The output is a
//     public function of (domain, input), so entries never go stale.
#pragma once

#include <string_view>

#include "ec/identity_cache.h"
#include "ec/point.h"

namespace medcrypt::ec {

/// Maps `input` to a point of order q on `curve`, domain-separated by
/// `domain`. Deterministic; output is never the point at infinity.
Point hash_to_subgroup(const Curve* curve, std::string_view domain,
                       BytesView input);

/// The try-and-increment candidate H' of hash_to_subgroup, before
/// cofactor clearing: hash_to_subgroup(...) == h·H' (up to a ~1/q chance
/// that h·H' = O, where hash_to_subgroup moves on to the next counter).
/// A point of E(F_p), not of G1. Verifiers that only use h(M) as the
/// second argument of a pairing can take H' instead and move the
/// cofactor to the fixed first argument (see gdh::verify), skipping the
/// cofactor multiplication. Never returns O or the order-2 point (0, 0).
Point hash_to_curve_candidate(const Curve* curve, std::string_view domain,
                              BytesView input);

/// The process-wide identity-point cache shared by every H1 consumer
/// (metric family `sem.cache.h1`). Entries from different hash domains
/// never collide; entries from different curves are rejected on hit by
/// a curve-identity check.
const ShardedLruCache<Point>& identity_point_cache();

/// hash_to_subgroup through identity_point_cache().
Point hash_to_subgroup_cached(const Curve* curve, std::string_view domain,
                              BytesView input);

}  // namespace medcrypt::ec

// Process-wide caches for pairing-side public precomputations, built on
// the sharded identity LRU (src/ec/identity_cache.h):
//
//   - shared_prepared(): the Miller-loop program of a fixed PUBLIC first
//     argument (the generator P, a public key R, their negations…),
//     keyed by the point's compressed encoding. A verification equation
//     checked against the same base twice amortizes the whole Jacobian
//     chain — exactly the prepared-pairing half of TatePairing::prepare,
//     but shared across call sites and bounded by LRU eviction
//     (metric family `sem.cache.prepared`).
//   - cached_pair(): full pairing values of fixed PUBLIC argument pairs,
//     keyed by both compressed encodings: ê(P, P) for the Hess and
//     threshold-proof commitments, and g_ID = ê(P_pub, Q_ID) per BF
//     encryption recipient (metric family `sem.cache.gpp`).
//
// SECRET first arguments (d_ID,sem halves) must NOT go through here:
// this cache never wipes, and entries outlive their enrolling mediator.
// The SEM's per-identity secret programs live in the MediatorBase
// registry instead.
#pragma once

#include <memory>
#include <string_view>

#include "ec/identity_cache.h"
#include "pairing/tate.h"

namespace medcrypt::pairing {

/// Prepared program of public point `p` on `pairing`'s curve, from the
/// process-wide cache (computed and inserted on miss). `domain` scopes
/// the cache tag (e.g. "gdh.verify"); entries from other curves that
/// collide on serialized bytes are rejected on hit. The returned program
/// is immutable and shared — callers on other threads may hold it
/// concurrently.
std::shared_ptr<const PreparedPairing> shared_prepared(
    const TatePairing& pairing, const Point& p, std::string_view domain);

/// The process-wide cache behind cached_pair(), exposed for audit and tests.
const ec::ShardedLruCache<Fp2>& pair_value_cache();

/// Cached full pairing ê(p, q) of two public points (both encodings form
/// the tag). Use for fixed pairs recomputed per operation, like the Hess
/// signer's ê(P, P) or an encryptor's g_ID = ê(P_pub, Q_ID).
Fp2 cached_pair(const TatePairing& pairing, const Point& p, const Point& q,
                std::string_view domain);

}  // namespace medcrypt::pairing

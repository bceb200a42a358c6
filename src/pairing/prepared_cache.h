// Process-wide caches for pairing-side PER-KEY public precomputations,
// built on the sharded identity LRU (src/ec/identity_cache.h):
//
//   - shared_prepared(): the Miller-loop program of a PUBLIC first
//     argument that varies per key: −R for a GDH public key R, −P_pub for
//     a Hess verifier. It is keyed by the point's compressed encoding and
//     bounded by LRU eviction (metric family `sem.cache.prepared`).
//   - cached_pair(): full pairing values of PUBLIC argument pairs, keyed
//     by both compressed encodings: g_ID = ê(P_pub, Q_ID) per BF
//     encryption recipient (metric family `sem.cache.gpp`).
//
// Fixed per-set precomputations do not come here: the programs of P and
// P~ and the value ê(P, P) are built once by generate_params and live in
// the ParamSet (src/pairing/param_gen.h).
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

/// The process-wide cache behind shared_prepared(), exposed for audit and
/// tests.
const ec::ShardedLruCache<std::shared_ptr<const PreparedPairing>>&
prepared_program_cache();

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
/// the tag). Use for pairs recomputed per operation, like an encryptor's
/// g_ID = ê(P_pub, Q_ID).
Fp2 cached_pair(const TatePairing& pairing, const Point& p, const Point& q,
                std::string_view domain);

}  // namespace medcrypt::pairing

#include "gdh/aggregate.h"

#include <set>

#include "common/error.h"

namespace medcrypt::gdh {

using bigint::BigInt;

Point aggregate_signatures(const pairing::ParamSet& group,
                           std::span<const Point> signatures) {
  if (signatures.empty()) {
    throw InvalidArgument("aggregate_signatures: empty list");
  }
  Point acc = group.curve->infinity();
  for (const Point& s : signatures) acc += s;
  return acc;
}

bool verify_aggregate(const pairing::ParamSet& group,
                      std::span<const AggregateEntry> entries,
                      const Point& aggregate) {
  if (entries.empty()) return false;

  // Rogue-aggregation guard: (pub, message) statements must be distinct.
  std::set<Bytes> seen;
  for (const AggregateEntry& e : entries) {
    if (!seen.insert(concat(e.pub.to_bytes(), e.message)).second) {
      return false;
    }
  }

  std::vector<Point> pubs;
  std::vector<Point> candidates;
  pubs.reserve(entries.size());
  candidates.reserve(entries.size());
  for (const AggregateEntry& e : entries) {
    pubs.push_back(e.pub);
    candidates.push_back(hash_candidate(group, e.message));
  }
  return verify_candidates(group, pubs, candidates, aggregate);
}

Point multisig_key(const pairing::ParamSet& group,
                   std::span<const Point> keys) {
  if (keys.empty()) throw InvalidArgument("multisig_key: empty list");
  Point acc = group.curve->infinity();
  for (const Point& k : keys) acc += k;
  return acc;
}

bool verify_multisig(const pairing::ParamSet& group,
                     std::span<const Point> keys, BytesView message,
                     const Point& signature) {
  return verify(group, multisig_key(group, keys), message, signature);
}

BlindingState blind_message(const pairing::ParamSet& group, BytesView message,
                            RandomSource& rng) {
  BlindingState state;
  state.r = BigInt::random_unit(rng, group.order());
  state.blinded = hash_message(group, message) + group.mul_g(state.r);
  return state;
}

Point sign_blinded(const BigInt& secret, const Point& blinded) {
  return blinded.mul(secret);
}

Point unblind_signature(const pairing::ParamSet& group,
                        const BlindingState& state, const Point& pub,
                        const Point& blind_signature) {
  // x(h + rP) - r(xP) = x·h
  (void)group;
  return blind_signature - pub.mul(state.r);
}

}  // namespace medcrypt::gdh

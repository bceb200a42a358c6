#include "gdh/bls.h"

#include <vector>

#include "common/error.h"
#include "ec/hash_to_point.h"
#include "pairing/prepared_cache.h"
#include "pairing/tate.h"

namespace medcrypt::gdh {

KeyPair keygen(const pairing::ParamSet& group, RandomSource& rng) {
  const BigInt x = BigInt::random_unit(rng, group.order());
  return KeyPair{x, group.mul_g(x)};
}

Point hash_message(const pairing::ParamSet& group, BytesView message) {
  return ec::hash_to_subgroup(group.curve, kHashDomain, message);
}

Point hash_candidate(const pairing::ParamSet& group, BytesView message) {
  return ec::hash_to_curve_candidate(group.curve, kHashDomain, message);
}

Point sign(const pairing::ParamSet& group, const BigInt& secret,
           BytesView message) {
  return hash_message(group, message).mul(secret);
}

namespace {

// The one verification equation behind every GDH verifier:
// σ ∈ G1 \ {O} and ê(base, σ)·Π ê(−R_i, H_i) == 1, as one product
// multi-pairing (shared squaring chain, single final exponentiation).
// `base` is the ParamSet's program of P against cleared hashes, of P~
// against raw candidates; each −R_i program comes from the prepared
// cache. The G1 check on σ is what the pairing cannot do: ê(·, T) = 1
// for every T of order dividing h, so σ + T would pass the equation.
bool check_dh(const pairing::ParamSet& group,
              const pairing::PreparedPairing& base,
              std::span<const Point> pubs, std::span<const Point> hashes,
              const Point& signature) {
  if (pubs.size() != hashes.size()) {
    throw InvalidArgument("gdh: key and hash counts differ");
  }
  if (signature.is_infinity() || !signature.in_subgroup()) return false;
  const pairing::TatePairing& pairing = *group.pairing;
  std::vector<std::shared_ptr<const pairing::PreparedPairing>> programs;
  programs.reserve(pubs.size());
  for (const Point& pub : pubs) {
    programs.push_back(pairing::shared_prepared(pairing, -pub, "gdh.verify"));
  }
  std::vector<pairing::TatePairing::PairTerm> terms;
  terms.reserve(programs.size() + 1);
  terms.push_back({nullptr, &base, &signature});
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    terms.push_back({nullptr, programs[i].get(), &hashes[i]});
  }
  return pairing.pair_many(terms).is_one();
}

}  // namespace

bool verify(const pairing::ParamSet& group, const Point& pub,
            BytesView message, const Point& signature) {
  const Point candidate = hash_candidate(group, message);
  return verify_candidates(group, {&pub, 1}, {&candidate, 1}, signature);
}

bool verify_prehashed(const pairing::ParamSet& group, const Point& pub,
                      const Point& h, const Point& signature) {
  return check_dh(group, *group.generator_program, {&pub, 1}, {&h, 1},
                  signature);
}

bool verify_candidates(const pairing::ParamSet& group,
                       std::span<const Point> pubs,
                       std::span<const Point> candidates,
                       const Point& signature) {
  return check_dh(group, *group.inv_cofactor_program, pubs, candidates,
                  signature);
}

std::pair<BigInt, BigInt> split_key(const BigInt& secret, const BigInt& q,
                                    RandomSource& rng) {
  const BigInt x_user = BigInt::random_unit(rng, q);
  return {x_user, secret.mod(q).sub_mod(x_user, q)};
}

}  // namespace medcrypt::gdh

#include "threshold/threshold_elgamal.h"

#include <set>

#include "common/error.h"
#include "gdh/bls.h"

namespace medcrypt::threshold {

const Point& ElGamalSetup::verification_key(std::uint32_t index) const {
  if (index == 0 || index > verification_keys.size()) {
    throw InvalidArgument("ElGamalSetup: player index out of range");
  }
  return verification_keys[index - 1];
}

ElGamalDealing elgamal_threshold_setup(elgamal::Params params, std::size_t t,
                                       std::size_t n, RandomSource& rng) {
  if (t < 1 || t > n) {
    throw InvalidArgument("elgamal_threshold_setup: need 1 <= t <= n");
  }
  const BigInt& q = params.order();
  const BigInt x = BigInt::random_unit(rng, q);
  const shamir::Sharing sharing = shamir::share_secret(x, t, n, q, rng);

  ElGamalDealing out;
  out.setup.threshold = t;
  out.setup.players = n;
  out.setup.public_key = params.group.mul_g(x);
  out.setup.verification_keys.reserve(n);
  out.shares.reserve(n);
  for (const shamir::Share& share : sharing.shares) {
    out.setup.verification_keys.push_back(params.group.mul_g(share.value));
    out.shares.push_back(ElGamalKeyShare{share.index, share.value});
  }
  out.setup.params = std::move(params);
  return out;
}

ElGamalDecryptionShare elgamal_decrypt_share(const ElGamalKeyShare& share,
                                             const Point& c1) {
  return ElGamalDecryptionShare{share.index, c1.mul(share.value)};
}

bool elgamal_verify_share(const ElGamalSetup& setup, const Point& c1,
                          const ElGamalDecryptionShare& share) {
  if (share.index == 0 || share.index > setup.players) return false;
  // S_i is checked as a GDH signature on C1 under Y_i: S_i ∈ G1 \ {O}
  // and ê(P, S_i) = ê(Y_i, C1). Without the G1 check S_i + T would pass
  // for any T of order dividing h, and the combiner would add λ_i·T.
  return gdh::verify_prehashed(setup.params.group,
                               setup.verification_key(share.index), c1,
                               share.value);
}

Point elgamal_combine_shares(const ElGamalSetup& setup,
                             std::span<const ElGamalDecryptionShare> shares) {
  if (shares.size() != setup.threshold) {
    throw InvalidArgument("elgamal_combine_shares: need exactly t shares");
  }
  std::vector<std::uint32_t> indices;
  indices.reserve(shares.size());
  std::set<std::uint32_t> seen;
  for (const ElGamalDecryptionShare& s : shares) {
    if (!seen.insert(s.index).second) {
      throw InvalidArgument("elgamal_combine_shares: duplicate index");
    }
    indices.push_back(s.index);
  }
  const BigInt& q = setup.params.order();
  Point acc = setup.params.group.curve->infinity();
  for (const ElGamalDecryptionShare& s : shares) {
    const BigInt lambda =
        shamir::lagrange_coefficient(indices, s.index, BigInt{}, q);
    acc += s.value.mul(lambda);
  }
  return acc;
}

}  // namespace medcrypt::threshold

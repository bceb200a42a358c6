#include "threshold/threshold_elgamal.h"

#include "common/error.h"
#include "gdh/bls.h"

namespace medcrypt::threshold {

ElGamalDealing elgamal_threshold_setup(elgamal::Params params, std::size_t t,
                                       std::size_t n, RandomSource& rng) {
  ElGamalDealing out;
  const shamir::Sharing sharing =
      deal(params.group, t, n, rng, out.setup, out.setup.public_key);
  out.shares.reserve(n);
  for (const shamir::Share& s : sharing.shares) {
    out.shares.push_back(ElGamalKeyShare{s.index, s.value});
  }
  out.setup.params = std::move(params);
  return out;
}

ElGamalDecryptionShare elgamal_decrypt_share(const ElGamalKeyShare& share,
                                             const Point& u) {
  if (u.is_infinity() || !u.in_subgroup()) {
    throw InvalidArgument("elgamal_decrypt_share: U not in the subgroup");
  }
  return ElGamalDecryptionShare{share.index, u.mul(share.value)};
}

bool elgamal_verify_share(const ElGamalSetup& setup, const Point& u,
                          const ElGamalDecryptionShare& share) {
  const Point* y_i = setup.public_point(share.index);
  // S_i is checked as a GDH signature on U under Y_i: S_i ∈ G1 \ {O}
  // and ê(P, S_i) = ê(Y_i, U). Without the G1 check S_i + T would pass
  // for any T of order dividing h, and the combiner would add λ_i·T.
  return y_i != nullptr &&
         gdh::verify_prehashed(setup.params.group, *y_i, u, share.value);
}

Point elgamal_combine_shares(const ElGamalSetup& setup,
                             std::span<const ElGamalDecryptionShare> shares) {
  return setup.interpolate_shares(shares, BigInt{}, setup.params.order());
}

}  // namespace medcrypt::threshold

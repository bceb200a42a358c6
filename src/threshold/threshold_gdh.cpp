#include "threshold/threshold_gdh.h"

#include <set>

#include "common/error.h"

namespace medcrypt::threshold {

const Point& GdhSetup::verification_key(std::uint32_t index) const {
  if (index == 0 || index > verification_keys.size()) {
    throw InvalidArgument("GdhSetup: player index out of range");
  }
  return verification_keys[index - 1];
}

GdhDealing gdh_threshold_setup(pairing::ParamSet group, std::size_t t,
                               std::size_t n, RandomSource& rng) {
  if (t < 1 || t > n) {
    throw InvalidArgument("gdh_threshold_setup: need 1 <= t <= n");
  }
  const BigInt& q = group.order();
  const BigInt x = BigInt::random_unit(rng, q);
  const shamir::Sharing sharing = shamir::share_secret(x, t, n, q, rng);

  GdhDealing out;
  out.setup.threshold = t;
  out.setup.players = n;
  out.setup.public_key = group.mul_g(x);
  out.setup.verification_keys.reserve(n);
  out.shares.reserve(n);
  for (const shamir::Share& share : sharing.shares) {
    out.setup.verification_keys.push_back(group.mul_g(share.value));
    out.shares.push_back(GdhKeyShare{share.index, share.value});
  }
  out.setup.group = std::move(group);
  return out;
}

GdhSignatureShare gdh_sign_share(const GdhSetup& setup,
                                 const GdhKeyShare& share, BytesView message) {
  return GdhSignatureShare{
      share.index, gdh::hash_message(setup.group, message).mul(share.value)};
}

bool gdh_verify_share(const GdhSetup& setup, BytesView message,
                      const GdhSignatureShare& share) {
  if (share.index == 0 || share.index > setup.players) return false;
  // σ_i is an ordinary GDH signature under R_i.
  return gdh::verify(setup.group, setup.verification_key(share.index),
                     message, share.value);
}

Point gdh_combine_shares(const GdhSetup& setup,
                         std::span<const GdhSignatureShare> shares) {
  if (shares.size() != setup.threshold) {
    throw InvalidArgument("gdh_combine_shares: need exactly t shares");
  }
  std::vector<std::uint32_t> indices;
  indices.reserve(shares.size());
  std::set<std::uint32_t> seen;
  for (const GdhSignatureShare& s : shares) {
    if (!seen.insert(s.index).second) {
      throw InvalidArgument("gdh_combine_shares: duplicate index");
    }
    indices.push_back(s.index);
  }
  const BigInt& q = setup.group.order();
  Point acc = setup.group.curve->infinity();
  for (const GdhSignatureShare& s : shares) {
    const BigInt lambda =
        shamir::lagrange_coefficient(indices, s.index, BigInt{}, q);
    acc += s.value.mul(lambda);
  }
  return acc;
}

}  // namespace medcrypt::threshold

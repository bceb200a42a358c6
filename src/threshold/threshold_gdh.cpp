#include "threshold/threshold_gdh.h"

namespace medcrypt::threshold {

GdhDealing gdh_threshold_setup(pairing::ParamSet group, std::size_t t,
                               std::size_t n, RandomSource& rng) {
  GdhDealing out;
  const shamir::Sharing sharing =
      deal(group, t, n, rng, out.setup, out.setup.public_key);
  out.shares.reserve(n);
  for (const shamir::Share& s : sharing.shares) {
    out.shares.push_back(GdhKeyShare{s.index, s.value});
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
  const Point* r_i = setup.public_point(share.index);
  // σ_i is an ordinary GDH signature under R_i.
  return r_i != nullptr && gdh::verify(setup.group, *r_i, message, share.value);
}

Point gdh_combine_shares(const GdhSetup& setup,
                         std::span<const GdhSignatureShare> shares) {
  return setup.interpolate_shares(shares, BigInt{}, setup.group.order());
}

}  // namespace medcrypt::threshold

#include "ibe/pkg.h"

#include "common/error.h"

namespace medcrypt::ibe {

Pkg::Pkg(pairing::ParamSet group, std::size_t message_len, RandomSource& rng)
    : Pkg(group, message_len, BigInt::random_unit(rng, group.order())) {}

Pkg::Pkg(pairing::ParamSet group, std::size_t message_len, BigInt master_key)
    : master_key_(std::move(master_key)) {
  // Range sanity check at construction: rejects only out-of-range inputs,
  // which honestly generated keys never are, so the branch outcome is the
  // public fact "this Pkg exists".  medlint: allow(secret-branch, ct-variable-time)
  if (master_key_ <= BigInt(0) || master_key_ >= group.order()) {
    throw InvalidArgument("Pkg: master key out of range");
  }
  params_.p_pub = group.mul_g(master_key_);
  params_.group = std::move(group);
  params_.message_len = message_len;
}

Point Pkg::extract(std::string_view identity) const {
  return map_identity(params_, identity).mul(master_key_);
}

SplitKey Pkg::extract_split(std::string_view identity,
                            RandomSource& rng) const {
  const Point d_id = extract(identity);
  // d_user is a uniformly random point of the q-order subgroup: a random
  // scalar multiple of the generator.
  const Point d_user =
      params_.group.mul_g(BigInt::random_unit(rng, params_.order()));
  return SplitKey{d_user, d_id - d_user};
}

}  // namespace medcrypt::ibe

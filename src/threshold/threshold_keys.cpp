#include "threshold/threshold_keys.h"

#include "common/error.h"

namespace medcrypt::threshold {

const Point* ThresholdKeys::public_point(
    std::uint32_t index) const noexcept {
  if (index == 0 || index > verification_keys.size()) return nullptr;
  return &verification_keys[index - 1];
}

const Point& ThresholdKeys::verification_key(std::uint32_t index) const {
  const Point* point = public_point(index);
  if (point == nullptr) {
    throw InvalidArgument("verification_key: player index out of range");
  }
  return *point;
}

std::vector<BigInt> ThresholdKeys::lagrange(
    std::span<const std::uint32_t> indices, const BigInt& x,
    const BigInt& q) const {
  shamir::check_indices(indices, threshold, players);
  return shamir::lagrange_coefficients(indices, x, q);
}

Point ThresholdKeys::interpolate(std::span<const std::uint32_t> indices,
                                 std::span<const Point* const> points,
                                 const BigInt& x, const BigInt& q) const {
  const std::vector<BigInt> lambdas = lagrange(indices, x, q);
  Point acc = points.front()->curve()->infinity();
  for (std::size_t k = 0; k < points.size(); ++k) {
    acc += points[k]->mul(lambdas[k]);
  }
  return acc;
}

shamir::Sharing deal(const pairing::ParamSet& group, std::size_t t,
                     std::size_t n, RandomSource& rng, ThresholdKeys& keys,
                     Point& public_key) {
  const BigInt& q = group.order();
  BigInt x = BigInt::random_unit(rng, q);
  shamir::Sharing sharing = shamir::share_secret(x, t, n, q, rng);
  public_key = group.mul_g(x);
  x.wipe();
  keys.threshold = t;
  keys.players = n;
  keys.verification_keys.reserve(n);
  for (const shamir::Share& s : sharing.shares) {
    keys.verification_keys.push_back(group.mul_g(s.value));
  }
  return sharing;
}

}  // namespace medcrypt::threshold

#include "games/tcpa_simulator.h"

#include <algorithm>

#include "common/error.h"
#include "shamir/shamir.h"

namespace medcrypt::games {

using bigint::BigInt;
using ec::Point;

std::vector<Point> simulate_verification_keys(
    const pairing::ParamSet& group, std::size_t t, std::size_t n,
    std::span<const CorruptedShare> corrupted, const Point& p_pub) {
  if (t < 1 || t > n) {
    throw InvalidArgument("simulate_verification_keys: need 1 <= t <= n");
  }
  // Interpolation nodes {0} ∪ S: x_0 = 0 carries P_pub, x_j the shares.
  std::vector<std::uint32_t> nodes = {0};
  for (const CorruptedShare& c : corrupted) nodes.push_back(c.index);
  shamir::check_indices(std::span(nodes).subspan(1), t - 1, n);

  const BigInt& q = group.order();
  std::vector<Point> keys;
  keys.reserve(n);
  for (std::uint32_t i = 1; i <= n; ++i) {
    if (std::find(nodes.begin(), nodes.end(), i) != nodes.end()) {
      // For corrupted players the key is directly c_i·P.
      for (const CorruptedShare& c : corrupted) {
        if (c.index == i) keys.push_back(group.mul_g(c.value.mod(q)));
      }
      continue;
    }
    const std::vector<BigInt> lambdas = shamir::lagrange_coefficients(
        nodes, BigInt(static_cast<std::uint64_t>(i)), q);
    Point acc = p_pub.mul(lambdas[0]);
    for (std::size_t j = 0; j < corrupted.size(); ++j) {
      acc += group.mul_g(lambdas[j + 1].mul_mod(corrupted[j].value.mod(q), q));
    }
    keys.push_back(acc);
  }
  return keys;
}

threshold::ThresholdSetup simulate_threshold_setup(
    const pairing::ParamSet& group, std::size_t message_len, std::size_t t,
    std::size_t n, std::span<const CorruptedShare> corrupted,
    const Point& p_pub) {
  threshold::ThresholdKeys keys;
  keys.threshold = t;
  keys.players = n;
  keys.verification_keys =
      simulate_verification_keys(group, t, n, corrupted, p_pub);
  return threshold::ThresholdSetup(
      ibe::SystemParams(group, p_pub, message_len), std::move(keys));
}

threshold::KeyShare simulate_corrupted_key_share(
    const threshold::ThresholdSetup& setup, const CorruptedShare& share,
    std::string_view identity) {
  return threshold::KeyShare(
      setup.params.group, share.index,
      ibe::map_identity(setup.params, identity).mul(share.value));
}

}  // namespace medcrypt::games

// The (t, n) machinery every threshold scheme here shares: the §3
// threshold BF-IBE, §5 threshold GDH and §4 threshold FO-ElGamal.
//
//   Deal     a trusted dealer draws x, Shamir-shares it over Z_q and
//            publishes x·P and the verification keys x_i·P.
//   Combine  a combiner takes exactly t shares with distinct indices in
//            [1, n] and interpolates them with Lagrange coefficients,
//            in G1 (interpolate) or in G_T (lagrange + field::multi_pow).
#pragma once

#include <span>
#include <vector>

#include "pairing/param_gen.h"
#include "shamir/shamir.h"

namespace medcrypt::threshold {

using bigint::BigInt;
using ec::Point;

/// The public side of a (t, n) sharing; ThresholdSetup, GdhSetup and
/// ElGamalSetup extend it.
struct ThresholdKeys {
  std::size_t threshold = 0;             // t
  std::size_t players = 0;               // n
  std::vector<Point> verification_keys;  // x_i·P, index i-1

  /// x_i·P, or nullptr unless 1 <= index <= verification_keys.size():
  /// the one share-index range rule of the verifiers.
  const Point* public_point(std::uint32_t index) const noexcept;

  /// x_i·P. Throws InvalidArgument where public_point is null.
  const Point& verification_key(std::uint32_t index) const;

  /// Lagrange coefficients at abscissa x for `indices`, which must pass
  /// shamir::check_indices against (t, n).
  std::vector<BigInt> lagrange(std::span<const std::uint32_t> indices,
                               const BigInt& x, const BigInt& q) const;

  /// Σ λ_k·points_k with λ = lagrange(indices, x, q): interpolation in
  /// the exponent of G1. points_k is the value at indices_k; they are
  /// taken by address so key shares are not copied.
  Point interpolate(std::span<const std::uint32_t> indices,
                    std::span<const Point* const> points, const BigInt& x,
                    const BigInt& q) const;

  /// interpolate() over shares that each carry an `index` and a G1
  /// `value`.
  template <class Shares>
  Point interpolate_shares(const Shares& shares, const BigInt& x,
                           const BigInt& q) const {
    std::vector<std::uint32_t> indices;
    std::vector<const Point*> points;
    for (const auto& s : shares) {
      indices.push_back(s.index);
      points.push_back(&s.value);
    }
    return interpolate(indices, points, x, q);
  }
};

/// The trusted dealer: draws x ∈ Z_q*, Shamir-shares it with threshold t
/// among n players, fills `keys` with t, n and x_i·P and `public_key`
/// with x·P, and returns the sharing (f(0) = x, share i = x_i).
shamir::Sharing deal(const pairing::ParamSet& group, std::size_t t,
                     std::size_t n, RandomSource& rng, ThresholdKeys& keys,
                     Point& public_key);

}  // namespace medcrypt::threshold

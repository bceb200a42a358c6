// Generation of supersingular pairing parameter sets.
//
// Finds a subgroup order q (prime) and a field prime p = h·q - 1 with
// h ≡ 0 (mod 4) (so p ≡ 3 (mod 4)) of the requested sizes, then derives
// the curve y^2 = x^3 + x and a generator of the order-q subgroup.
#pragma once

#include <memory>

#include "ec/curve.h"
#include "ec/fixed_base.h"
#include "ec/point.h"
#include "common/random_source.h"

namespace medcrypt::pairing {

using bigint::BigInt;
using ec::Curve;
using ec::Point;

/// A complete pairing-friendly parameter set: the supersingular curve and
/// a generator P of its order-q subgroup.
struct ParamSet {
  std::shared_ptr<const Curve> curve;
  Point generator;

  /// Windowed fixed-base table for `generator`; generate_params always
  /// fills it. shared_ptr keeps ParamSet copies cheap (the table is
  /// ~600 affine points at sec80).
  std::shared_ptr<const ec::FixedBaseTable> generator_table;

  /// P~ = (h^-1 mod q)·P, so h·P~ = P. A verifier that pairs against a
  /// hash candidate H' with h(M) = h·H' checks ê(P~, σ) where the
  /// standard equation has ê(P, σ): ê(P~, σ)^h = ê(P, σ) and
  /// ê(R, H')^h = ê(R, h(M)). generate_params always fills it.
  Point inv_cofactor_generator;

  /// Shorthand for curve->order().
  const BigInt& order() const { return curve->order(); }

  /// k·P through the precomputed table.
  Point mul_g(const BigInt& k) const { return generator_table->mul(k); }
};

/// Generates a fresh parameter set with a `p_bits`-bit field prime and a
/// `q_bits`-bit subgroup order. Requires p_bits >= q_bits + 3.
ParamSet generate_params(std::size_t p_bits, std::size_t q_bits,
                         RandomSource& rng);

}  // namespace medcrypt::pairing

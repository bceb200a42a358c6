// Generation of supersingular pairing parameter sets.
//
// Takes the subgroup order q = 2^q_bits − 2^b − 1 (the smallest b ≥ 1
// that makes it prime) and finds a field prime p = h·q - 1 of p_bits bits
// with h random and h ≡ 0 (mod 4) (so p ≡ 3 (mod 4)), then derives
// the curve y^2 = x^3 + x and a generator of the order-q subgroup, and
// builds the set's whole pairing context once: the engine, the Miller
// programs of the two generators and ê(P, P).
#pragma once

#include <memory>

#include "ec/curve.h"
#include "ec/fixed_base.h"
#include "ec/point.h"
#include "common/random_source.h"
#include "pairing/tate.h"

namespace medcrypt::pairing {

using bigint::BigInt;
using ec::Curve;
using ec::Point;

/// A complete pairing-friendly parameter set: the supersingular curve, a
/// generator P of its order-q subgroup, and every public precomputation
/// that depends on nothing else. generate_params fills every field.
/// `curve` is the interned context (Curve::make), so sets with equal
/// parameters share it and their points compare equal; it is never
/// freed, so points taken from a set outlive the set. The shared_ptr
/// members own the heavy per-set data and keep ParamSet copies cheap.
/// Schemes take the set by reference and never rebuild any of it per
/// operation.
struct ParamSet {
  const Curve* curve = nullptr;
  Point generator;

  /// Windowed fixed-base table for `generator` (~600 affine points at
  /// sec80).
  std::shared_ptr<const ec::FixedBaseTable> generator_table;

  /// P~ = (h^-1 mod q)·P, so h·P~ = P. A verifier that pairs against a
  /// hash candidate H' with h(M) = h·H' checks ê(P~, σ) where the
  /// standard equation has ê(P, σ): ê(P~, σ)^h = ê(P, σ) and
  /// ê(R, H')^h = ê(R, h(M)).
  Point inv_cofactor_generator;

  /// The pairing engine of `curve`.
  std::shared_ptr<const TatePairing> pairing;

  /// Prepared Miller programs of P and of P~, the fixed first arguments
  /// of the GDH, Hess and threshold verification equations.
  std::shared_ptr<const PreparedPairing> generator_program;
  std::shared_ptr<const PreparedPairing> inv_cofactor_program;

  /// ê(P, P), the base of the Hess signers' commitments.
  Fp2 gpp;

  /// Shorthand for curve->order().
  const BigInt& order() const { return curve->order(); }

  /// k·P through the precomputed table.
  Point mul_g(const BigInt& k) const { return generator_table->mul(k); }
};

/// Generates a fresh parameter set with a `p_bits`-bit field prime and
/// the `q_bits`-bit Solinas subgroup order above. Requires
/// p_bits >= q_bits + 3; throws InvalidArgument if the cofactor search
/// finds no prime p in its bounded number of draws, which in practice
/// happens only when p_bits - q_bits is small enough to leave a handful
/// of cofactors.
ParamSet generate_params(std::size_t p_bits, std::size_t q_bits,
                         RandomSource& rng);

}  // namespace medcrypt::pairing

// The supersingular elliptic curve y^2 = x^3 + x over F_p, p ≡ 3 (mod 4).
//
// A Curve is an immutable interned context carrying the base field, the
// prime subgroup order q and the cofactor h (so #E(F_p) = h·q = p + 1):
// Curve::make keeps one per (field, q, h) for the life of the process,
// and points hold a plain pointer to it. It is the one family the
// pairing parameter sets use. The x-only scalar ladder (ec/jacobian.h)
// relies on it: the curve is the Montgomery curve y^2 = x^3 + A·x^2 + x
// with A = 0, and with -1 a non-residue (0, 0) is its only point of
// order 2, the ladder's one special input.
#pragma once

#include "field/fp2.h"

namespace medcrypt::ec {

using bigint::BigInt;
using field::Fp;
using field::PrimeField;

class Point;

/// Immutable curve context, interned: obtain via Curve::make.
class Curve {
 public:
  /// The curve y^2 = x^3 + x over `field` with subgroup order q and
  /// cofactor h: built on the first call for (field, q, h), then the same
  /// pointer for every later call with them (from any thread). Contexts
  /// are never freed. Throws InvalidArgument unless p ≡ 3 (mod 4), q > 1
  /// and h >= 1.
  static const Curve* make(const PrimeField* field, BigInt order,
                           BigInt cofactor);

  Curve(const Curve&) = delete;
  Curve& operator=(const Curve&) = delete;

  const PrimeField* field() const { return field_; }

  /// Order q of the prime-order subgroup G1.
  const BigInt& order() const { return order_; }

  /// Cofactor h with #E(F_p) = h·q.
  const BigInt& cofactor() const { return cofactor_; }

  /// The chain q = 2^n − c and g = gcd(2^n + c, h) that
  /// Point::in_subgroup and field::in_gt test membership by.
  const field::OrderChain& chain() const { return chain_; }

  /// The point at infinity.
  Point infinity() const;

  /// Constructs an affine point, validating the curve equation.
  /// Throws InvalidArgument for off-curve coordinates.
  Point point(Fp x, Fp y) const;

  /// Right-hand side x^3 + x.
  Fp rhs(const Fp& x) const;

  /// True iff (x, y) satisfies the curve equation.
  bool contains(const Fp& x, const Fp& y) const;

  /// Size in bytes of a compressed point (tag byte + x coordinate).
  std::size_t compressed_size() const { return 1 + field_->byte_size(); }

  /// Parses the compressed encoding produced by Point::to_bytes.
  Point decompress(BytesView bytes) const;

 private:
  Curve(const PrimeField* field, BigInt order, BigInt cofactor);

  const PrimeField* field_;
  BigInt order_;
  BigInt cofactor_;
  field::OrderChain chain_;
};

}  // namespace medcrypt::ec

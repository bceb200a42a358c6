// Short-Weierstrass elliptic curves y^2 = x^3 + ax + b over F_p.
//
// A Curve is an immutable shared context carrying the base field, the
// coefficients, the prime subgroup order q and the cofactor h (so
// #E(F_p) = h·q). The pairing parameter sets instantiate the supersingular
// curve y^2 = x^3 + x with p ≡ 3 (mod 4), where #E(F_p) = p + 1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "field/fp.h"

namespace medcrypt::ec {

using bigint::BigInt;
using field::Fp;
using field::PrimeField;

class Point;

/// Immutable curve context. Create via Curve::make and share.
class Curve : public std::enable_shared_from_this<Curve> {
 public:
  /// Builds a curve y^2 = x^3 + ax + b with subgroup order q and cofactor h.
  /// Requires a non-singular curve (4a^3 + 27b^2 != 0).
  static std::shared_ptr<const Curve> make(
      std::shared_ptr<const PrimeField> field, Fp a, Fp b, BigInt order,
      BigInt cofactor);

  const std::shared_ptr<const PrimeField>& field() const { return field_; }
  const Fp& a() const { return a_; }
  const Fp& b() const { return b_; }

  /// Order q of the prime-order subgroup G1.
  const BigInt& order() const { return order_; }

  /// Cofactor h with #E(F_p) = h·q.
  const BigInt& cofactor() const { return cofactor_; }

  /// naf_digits(q) and naf_digits(h) (ec/jacobian.h), computed once:
  /// the fixed public scalars of subgroup checks and cofactor clearing.
  const std::vector<std::int8_t>& order_naf() const { return order_naf_; }
  const std::vector<std::int8_t>& cofactor_naf() const {
    return cofactor_naf_;
  }

  /// The point at infinity.
  Point infinity() const;

  /// Constructs an affine point, validating the curve equation.
  /// Throws InvalidArgument for off-curve coordinates.
  Point point(Fp x, Fp y) const;

  /// Right-hand side x^3 + ax + b.
  Fp rhs(const Fp& x) const;

  /// True iff (x, y) satisfies the curve equation.
  bool contains(const Fp& x, const Fp& y) const;

  /// Size in bytes of a compressed point (tag byte + x coordinate).
  std::size_t compressed_size() const { return 1 + field_->byte_size(); }

  /// Parses the compressed encoding produced by Point::to_bytes.
  Point decompress(BytesView bytes) const;

 private:
  Curve(std::shared_ptr<const PrimeField> field, Fp a, Fp b, BigInt order,
        BigInt cofactor);

  std::shared_ptr<const PrimeField> field_;
  Fp a_, b_;
  BigInt order_;
  BigInt cofactor_;
  std::vector<std::int8_t> order_naf_;
  std::vector<std::int8_t> cofactor_naf_;
};

}  // namespace medcrypt::ec

// Points on a short-Weierstrass curve (affine coordinates + infinity flag).
//
// Affine arithmetic (one field inversion per group operation) keeps the
// line-function bookkeeping of Miller's algorithm straightforward; the
// slope of each add/double is exactly the line the pairing evaluates.
#pragma once

#include "ec/curve.h"

namespace medcrypt::ec {

/// A point on an elliptic curve; value-semantic. It holds a plain
/// pointer to its interned curve (Curve::make), so a copy touches no
/// shared counter and two points share a curve iff the pointers match.
class Point {
 public:
  /// Default-constructed points belong to no curve (assignment only).
  Point() = default;

  const Curve* curve() const { return curve_; }
  bool is_infinity() const { return infinity_; }

  /// Affine coordinates; throw InvalidArgument at infinity.
  const Fp& x() const;
  const Fp& y() const;

  Point operator+(const Point& o) const;
  Point operator-() const;
  Point operator-(const Point& o) const { return *this + (-o); }
  Point& operator+=(const Point& o) { return *this = *this + o; }
  bool operator==(const Point& o) const;

  /// Doubling.
  Point dbl() const;

  /// Scalar multiplication k·P (x-only Montgomery ladder, ec/jacobian.h —
  /// one field inversion total). Negative k multiplies by |k| and negates.
  Point mul(const BigInt& k) const;

  /// Reference scalar multiplication in affine coordinates (one
  /// inversion per group operation). Kept for cross-checking the fast
  /// path and for the coordinate-system ablation bench.
  Point mul_affine(const BigInt& k) const;

  /// True iff the point lies in the order-q subgroup (q·P = O), by the
  /// chain of q (ec::in_subgroup_chain). Variable time: public points.
  bool in_subgroup() const;

  /// Compressed encoding: 0x00 for infinity (single byte is padded to
  /// compressed_size), else 0x02|parity(y) followed by big-endian x.
  Bytes to_bytes() const;

  /// Scrubs the coordinates and resets to the default (curveless) state.
  /// Secret key points (d_ID halves, threshold key shares) are wiped by
  /// their owning structs' destructors via this.
  void wipe() {
    x_.wipe();
    y_.wipe();
    infinity_ = true;
    curve_ = nullptr;
  }

 private:
  friend class Curve;
  Point(const Curve* curve, bool infinity, Fp x, Fp y)
      : curve_(curve), infinity_(infinity), x_(std::move(x)),
        y_(std::move(y)) {}

  void check_same_curve(const Point& o) const;

  const Curve* curve_ = nullptr;
  bool infinity_ = true;
  Fp x_, y_;
};

}  // namespace medcrypt::ec

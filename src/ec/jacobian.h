// Jacobian-coordinate arithmetic: the inversion-free fast path.
//
// Affine group operations cost one field inversion each (~500x a
// multiplication at 512 bits), which made scalar multiplication and the
// Miller loop inversion-bound. Jacobian coordinates (x = X/Z^2,
// y = Y/Z^3) defer the single inversion to the final conversion.
//
// The doubling/addition helpers optionally expose the intermediate
// quantities (`DblTrace` / `AddTrace`) from which the Tate pairing
// reconstructs its line functions without inversions: the line value
// scaled by any F_p factor is equivalent under the final exponentiation
// (the scale lies in the subfield the exponentiation kills), so the
// pairing multiplies by the numerator-scaled line directly.
//
// The affine path in ec/point.cpp remains the reference implementation;
// tests cross-check the two and an ablation bench measures the gap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ec/curve.h"
#include "ec/point.h"

namespace medcrypt::ec {

/// A point in Jacobian coordinates (x = X/Z^2, y = Y/Z^3); Z never zero
/// for finite points, `inf` marks the identity.
struct JacPoint {
  Fp x, y, z;
  bool inf = true;
};

/// Converts an affine point (Z = 1).
JacPoint jac_from_affine(const Point& p);

/// Converts back to affine (one inversion). Requires p on `curve`.
Point jac_to_affine(const std::shared_ptr<const Curve>& curve,
                    const JacPoint& p);

/// Converts a batch with a single field inversion (Montgomery's trick:
/// one inversion plus 3(n-1) multiplications).
std::vector<Point> jac_to_affine_batch(
    const std::shared_ptr<const Curve>& curve, std::span<const JacPoint> pts);

/// Intermediates of a doubling step the pairing's line function needs:
///   lambda = M / (2YZ) with M = 3X^2 + aZ^4; new Z' = 2YZ.
/// Scaled line through T (inputs X, Y, Z of T):
///   L = (M·X - 2Y^2 + M·Z^2·xq) + i · (Z'·Z^2·yq)
struct DblTrace {
  Fp m;       // M = 3X^2 + aZ^4
  Fp x;       // X of the input point
  Fp y_sq;    // Y^2 of the input point
  Fp z_sq;    // Z^2 of the input point
  Fp zp_zsq;  // Z' * Z^2 = 2YZ^3
};

/// Doubles `t`. When `trace` is non-null and the input is finite with
/// Y != 0, fills the line intermediates.
JacPoint jac_dbl(const Curve& curve, const JacPoint& t,
                 DblTrace* trace = nullptr);

/// Intermediates of a mixed addition T + P (P affine) for the pairing:
///   lambda = r / (Z·H); scaled line through P:
///   L = (r·(xq + xP) - Z·H·yP) + i · (Z·H·yq)
/// `vertical` marks the T = -P case (H = 0, r != 0): result is infinity
/// and the line is vertical (eliminated by the final exponentiation).
struct AddTrace {
  Fp zh;  // Z * H
  Fp r;
  bool vertical = false;
};

/// Mixed addition t + p with affine p. Requires p finite; t may be
/// infinity. Does NOT support the t == p doubling case (callers in the
/// Miller loop and the ladder never produce it; it throws if hit).
JacPoint jac_add_mixed(const Curve& curve, const JacPoint& t, const Point& p,
                       AddTrace* trace = nullptr);

/// Windowed scalar multiplication k·p via Jacobian coordinates.
/// Semantics identical to the affine reference (negative k negates).
Point jac_mul(const Point& p, const bigint::BigInt& k);

/// Non-adjacent form of k >= 0, least significant digit first: digits in
/// {-1, 0, 1}, no two adjacent ones nonzero (about a third are).
std::vector<std::int8_t> naf_digits(const bigint::BigInt& k);

/// k·p for a PUBLIC k given as naf_digits(k): double-and-add with mixed
/// additions of ±p. No table, so no field inversion — for fixed public
/// scalars (the curve's q and h, see Curve::order_naf) it beats the
/// windowed ladder of jac_mul, whose table costs one inversion. Its
/// operation sequence follows the digits, so never pass a secret scalar.
JacPoint jac_mul_naf(const Point& p, std::span<const std::int8_t> naf);

}  // namespace medcrypt::ec

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
// Variable-base multiples (Point::mul, cofactor clearing) run one
// x-only Montgomery ladder instead (ladder_mul below), and the subgroup
// check runs it over the short chain of q (in_subgroup_chain).
// y^2 = x^3 + x is the Montgomery curve B·y^2 = x^3 + A·x^2 + x with
// A = 0 and B = 1, so the ladder needs no change of model. A sum of
// multiples whose scalars and points are all public (the batch proof
// check's Σ ρ_i·V_i) runs multi_mul, which pays per set digit rather
// than per bit of q.
//
// The affine path in ec/point.cpp remains the reference implementation;
// tests cross-check the two and an ablation bench measures the gap.
#pragma once

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
Point jac_to_affine(const Curve* curve, const JacPoint& p);

/// Converts a batch with a single field inversion (field::batch_inverse,
/// Montgomery's trick: one inversion plus 3n multiplications).
/// FixedBaseTable's build converts its whole table through it.
std::vector<Point> jac_to_affine_batch(const Curve* curve,
                                       std::span<const JacPoint> pts);

/// Intermediates of a doubling step the pairing's line function needs:
///   lambda = M / (2YZ) with M = 3X^2 + Z^4 (a = 1); new Z' = 2YZ.
/// Scaled line through T (inputs X, Y, Z of T):
///   L = (M·X - 2Y^2 + M·Z^2·xq) + i · (Z'·Z^2·yq)
struct DblTrace {
  Fp m;       // M = 3X^2 + Z^4
  Fp x;       // X of the input point
  Fp y_sq;    // Y^2 of the input point
  Fp z_sq;    // Z^2 of the input point
  Fp zp_zsq;  // Z' * Z^2 = 2YZ^3
};

/// Doubles `t`. When `trace` is non-null and the input is finite with
/// Y != 0, fills the line intermediates.
JacPoint jac_dbl(const JacPoint& t, DblTrace* trace = nullptr);

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
/// infinity. The t == p case falls back to jac_dbl, and throws if a
/// trace is asked for (the Miller loop never produces it).
JacPoint jac_add_mixed(const JacPoint& t, const Point& p,
                       AddTrace* trace = nullptr);

/// k·p by the x-only Montgomery ladder (Montgomery 1987; RFC 7748 §5):
/// one differential addition and one doubling per bit on projective
/// (X : Z), 5M + 4S, for max(bits(k), bits(q)) steps with q the curve's
/// order, so any scalar below q takes the same operation sequence. The
/// step order is set by masked swaps (Fp::cswap), never by a branch or
/// table index on a bit of k, and the ladder state is wiped before
/// return. y is recovered by Okeya–Sakurai from x(P), y(P), x(kP) and
/// x((k+1)P). Negative k multiplies -p by |k|. Branches only on p and on
/// the result: (0, 0), the one 2-torsion point, maps to itself for odd
/// k and to O for even k; Z(kP) = 0 gives O before any recovery, and
/// Z((k+1)P) = 0 gives -p.
JacPoint ladder_mul(const Point& p, const bigint::BigInt& k);

/// True iff q·p = O for the curve's order q, by its chain
/// (field::OrderChain): x(2^n·p) = x(c·p) from an x-only ladder over
/// c − 1 and n − head x-only doublings (2M + 2S each), compared
/// projectively, then g·p ≠ O unless p = O. At sec80 that is 32 ladder
/// steps and 129 doublings, ~800 multiplies against ladder_mul's ~1,440
/// over q. (0, 0) answers by the parity of q, as in ladder_mul.
/// Variable time: for public points (signatures, tokens, ciphertexts).
bool in_subgroup_chain(const Point& p);

/// Σ scalars[j]·points[j] for PUBLIC scalars and points (Straus): one
/// shared doubling chain over the width-w NAF digits of every scalar,
/// each digit a mixed addition of ±(odd multiple) from the point's
/// table P, 3P, ..., (2^(w-1) - 1)·P, all tables brought to affine by
/// one batch inversion; w grows with the scalar's length. Exact for
/// every on-curve input: any integer scalar (zero, negative, ≥ q) and
/// any point (O, (0, 0), points outside the order-q subgroup, repeats).
/// Variable time: branches and table indices follow the digits, so a
/// secret scalar or point goes through ladder_mul instead. Throws
/// InvalidArgument unless the spans are non-empty and equally long.
Point multi_mul(std::span<const Point> points,
                std::span<const bigint::BigInt> scalars);

}  // namespace medcrypt::ec

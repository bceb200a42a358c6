// Precomputed windowed tables for fixed-base scalar multiplication.
//
// Point::mul runs one ladder step per bit of q (ec/jacobian.h) on every
// call, even when the base is the system-wide generator P or public key
// P_pub that every protocol operation multiplies by. A FixedBaseTable
// pays for that base once: it stores d·16^w·B for every 4-bit window
// position w and digit d in [1, 15], batch-inverted to affine (one
// inversion per window at build time), so one scalar multiplication is
// just ceil(bits(q)/4) mixed additions — about a quarter of the
// ladder's multiplications. Unlike the ladder it indexes its table by
// the scalar's digits (docs/SECRET_HYGIENE.md).
//
// Memory cost: ceil(bits(order)/4) × 15 affine points (≈ 600 points,
// ~77 KiB at the paper's 512-bit sec80 parameters) per cached base.
// Owners: ParamSet holds the generator's table, SystemParams holds
// P_pub's, and the IBS mediator holds one per installed per-identity
// key half — the latter are secret-derived, hence wipe().
#pragma once

#include <vector>

#include "bigint/bigint.h"
#include "ec/jacobian.h"
#include "ec/point.h"

namespace medcrypt::ec {

class FixedBaseTable {
 public:
  /// Empty table; only empty() and wipe() are valid on it.
  FixedBaseTable() = default;

  /// Precomputes the window table for `base`, whose order must divide
  /// `order` (scalars are reduced mod `order` before use). An infinity
  /// base yields a table whose mul() is constantly infinity.
  FixedBaseTable(const Point& base, bigint::BigInt order);

  bool empty() const { return curve_ == nullptr; }
  const Point& base() const { return base_; }

  /// Number of stored affine points (the table's memory footprint).
  std::size_t point_count() const { return table_.size(); }

  /// k·B. Scalars are reduced mod the table's order first, so k = 0,
  /// k = order and k > order all behave like the generic ladder.
  Point mul(const bigint::BigInt& k) const;

  /// Scrubs every stored point (the table of a secret base is itself
  /// secret) and returns to the empty state.
  void wipe();

 private:
  static constexpr int kWindow = 4;
  static constexpr unsigned kDigits = (1u << kWindow) - 1;  // 15

  const Curve* curve_ = nullptr;
  Point base_;
  bigint::BigInt order_;
  std::size_t windows_ = 0;
  std::vector<Point> table_;  // windows_ × kDigits entries, affine
};

}  // namespace medcrypt::ec

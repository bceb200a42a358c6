#include "ec/fixed_base.h"

#include <array>

#include "common/error.h"

namespace medcrypt::ec {

FixedBaseTable::FixedBaseTable(const Point& base, bigint::BigInt order)
    : curve_(base.curve()), base_(base), order_(std::move(order)) {
  if (!curve_) {
    throw InvalidArgument("FixedBaseTable: default-constructed base");
  }
  if (order_ <= bigint::BigInt(0)) {
    throw InvalidArgument("FixedBaseTable: order must be positive");
  }
  if (base_.is_infinity()) return;

  windows_ = (order_.bit_length() + kWindow - 1) / kWindow;
  table_.reserve(windows_ * kDigits);

  // Per window: accumulate d·g (g = 16^w·B affine) by mixed additions in
  // Jacobian form, plus one extra slot for 16·g = 2·(8·g) seeding the
  // next window; a single batched inversion converts all 16 to affine.
  Point g = base_;
  for (std::size_t w = 0; w < windows_; ++w) {
    if (g.is_infinity()) {
      // Base order exhausted (only possible for non-prime-order bases on
      // tiny curves): every remaining entry is the identity.
      table_.resize(windows_ * kDigits, curve_->infinity());
      break;
    }
    std::array<JacPoint, kDigits + 1> jac;
    JacPoint acc{};
    for (unsigned d = 0; d < kDigits; ++d) {
      acc = jac_add_mixed(acc, g);
      jac[d] = acc;
    }
    jac[kDigits] = jac_dbl(jac[7]);  // 16g = 2·(8g)
    const std::vector<Point> affine = jac_to_affine_batch(curve_, jac);
    for (unsigned d = 0; d < kDigits; ++d) table_.push_back(affine[d]);
    g = affine[kDigits];
  }
}

Point FixedBaseTable::mul(const bigint::BigInt& k) const {
  if (empty()) {
    throw InvalidArgument("FixedBaseTable::mul: empty table");
  }
  if (base_.is_infinity()) return curve_->infinity();
  JacPoint acc{};
  const bigint::BigInt r = k.mod(order_);
  for (std::size_t w = 0; w < windows_; ++w) {
    unsigned d = 0;
    for (int i = kWindow - 1; i >= 0; --i) {
      d = (d << 1) | (r.bit(w * kWindow + i) ? 1u : 0u);
    }
    if (d == 0) continue;
    const Point& entry = table_[w * kDigits + d - 1];
    if (entry.is_infinity()) continue;  // only for tiny non-prime orders
    acc = jac_add_mixed(acc, entry);
  }
  return jac_to_affine(curve_, acc);
}

void FixedBaseTable::wipe() {
  for (Point& p : table_) p.wipe();
  table_.clear();
  table_.shrink_to_fit();
  base_.wipe();
  order_.wipe();
  windows_ = 0;
  curve_ = nullptr;
}

}  // namespace medcrypt::ec

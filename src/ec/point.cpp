#include "ec/point.h"

#include "common/error.h"
#include "ec/jacobian.h"

namespace medcrypt::ec {

const Fp& Point::x() const {
  if (infinity_) throw InvalidArgument("Point::x: point at infinity");
  return x_;
}

const Fp& Point::y() const {
  if (infinity_) throw InvalidArgument("Point::y: point at infinity");
  return y_;
}

void Point::check_same_curve(const Point& o) const {
  if (!curve_ || !o.curve_) {
    throw InvalidArgument("Point: operation on default-constructed point");
  }
  if (curve_ != o.curve_) {
    throw InvalidArgument("Point: mixed-curve operation");
  }
}

Point Point::operator-() const {
  if (!curve_) throw InvalidArgument("Point: negate default-constructed point");
  if (infinity_) return *this;
  return Point(curve_, false, x_, -y_);
}

Point Point::dbl() const {
  if (!curve_) throw InvalidArgument("Point: dbl of default-constructed point");
  if (infinity_ || y_.is_zero()) return curve_->infinity();
  // λ = (3x^2 + 1) / 2y
  const Fp three = curve_->field()->from_u64(3);
  const Fp lambda =
      (x_.square() * three + curve_->field()->one()) * y_.dbl().inverse();
  const Fp x3 = lambda.square() - x_.dbl();
  const Fp y3 = lambda * (x_ - x3) - y_;
  return Point(curve_, false, x3, y3);
}

Point Point::operator+(const Point& o) const {
  check_same_curve(o);
  if (infinity_) return o;
  if (o.infinity_) return *this;
  if (x_ == o.x_) {
    if (y_ == o.y_) return dbl();
    return curve_->infinity();  // P + (-P)
  }
  const Fp lambda = (o.y_ - y_) * (o.x_ - x_).inverse();
  const Fp x3 = lambda.square() - x_ - o.x_;
  const Fp y3 = lambda * (x_ - x3) - y_;
  return Point(curve_, false, x3, y3);
}

bool Point::operator==(const Point& o) const {
  if (!curve_ || !o.curve_) return !curve_ && !o.curve_;
  if (curve_ != o.curve_) return false;
  if (infinity_ || o.infinity_) return infinity_ == o.infinity_;
  return x_ == o.x_ && y_ == o.y_;
}

Point Point::mul(const BigInt& k) const {
  if (!curve_) throw InvalidArgument("Point: mul of default-constructed point");
  // Fast path: x-only ladder (one inversion total instead of one per
  // group operation). mul_affine is kept as the reference implementation.
  return jac_to_affine(curve_, ladder_mul(*this, k));
}

Point Point::mul_affine(const BigInt& k) const {
  if (!curve_) throw InvalidArgument("Point: mul of default-constructed point");
  if (k.is_zero() || infinity_) return curve_->infinity();
  if (k.is_negative()) return (-*this).mul_affine(-k);

  // 4-bit window.
  constexpr int kWindow = 4;
  Point table[1 << kWindow];
  table[0] = curve_->infinity();
  table[1] = *this;
  for (int i = 2; i < (1 << kWindow); ++i) table[i] = table[i - 1] + *this;

  const std::size_t nbits = k.bit_length();
  const std::size_t nwindows = (nbits + kWindow - 1) / kWindow;
  Point acc = curve_->infinity();
  for (std::size_t w = nwindows; w-- > 0;) {
    for (int i = 0; i < kWindow; ++i) acc = acc.dbl();
    unsigned idx = 0;
    for (int i = kWindow - 1; i >= 0; --i) {
      idx = (idx << 1) | (k.bit(w * kWindow + i) ? 1u : 0u);
    }
    if (idx != 0) acc = acc + table[idx];
  }
  return acc;
}

bool Point::in_subgroup() const { return in_subgroup_chain(*this); }

Bytes Point::to_bytes() const {
  if (!curve_) throw InvalidArgument("Point: to_bytes of default point");
  Bytes out(curve_->compressed_size(), 0);
  if (infinity_) return out;  // tag 0x00, zero payload
  out[0] = y_.parity() ? 0x03 : 0x02;
  const Bytes xb = x_.to_bytes();
  std::copy(xb.begin(), xb.end(), out.begin() + 1);
  return out;
}

}  // namespace medcrypt::ec

#include "ec/curve.h"

#include "common/error.h"
#include "ec/point.h"

namespace medcrypt::ec {

Curve::Curve(std::shared_ptr<const PrimeField> field, BigInt order,
             BigInt cofactor)
    : field_(std::move(field)), order_(std::move(order)),
      cofactor_(std::move(cofactor)) {}

std::shared_ptr<const Curve> Curve::make(
    std::shared_ptr<const PrimeField> field, BigInt order, BigInt cofactor) {
  if (field->sqrt_exponent().is_zero()) {
    throw InvalidArgument("Curve::make: field prime must be 3 mod 4");
  }
  if (order <= BigInt(1) || cofactor < BigInt(1)) {
    throw InvalidArgument("Curve::make: bad order/cofactor");
  }
  return std::shared_ptr<const Curve>(
      new Curve(std::move(field), std::move(order), std::move(cofactor)));
}

Point Curve::infinity() const {
  return Point(shared_from_this(), true, Fp{}, Fp{});
}

Fp Curve::rhs(const Fp& x) const {
  return x.square() * x + x;
}

bool Curve::contains(const Fp& x, const Fp& y) const {
  return y.square() == rhs(x);
}

Point Curve::point(Fp x, Fp y) const {
  if (!contains(x, y)) {
    throw InvalidArgument("Curve::point: coordinates not on curve");
  }
  return Point(shared_from_this(), false, std::move(x), std::move(y));
}

Point Curve::decompress(BytesView bytes) const {
  if (bytes.size() != compressed_size()) {
    throw InvalidArgument("Curve::decompress: wrong length");
  }
  if (bytes[0] == 0x00) {
    // Infinity encoding: tag zero, zero payload.
    for (std::size_t i = 1; i < bytes.size(); ++i) {
      if (bytes[i] != 0) throw InvalidArgument("Curve::decompress: bad infinity");
    }
    return infinity();
  }
  if (bytes[0] != 0x02 && bytes[0] != 0x03) {
    throw InvalidArgument("Curve::decompress: bad tag");
  }
  const Fp x = field_->from_bytes(bytes.subspan(1));
  std::optional<Fp> y = rhs(x).try_sqrt();
  if (!y) throw InvalidArgument("Curve::decompress: x not on curve");
  const bool want_odd = bytes[0] == 0x03;
  if (y->parity() != want_odd) y->negate_inplace();
  return Point(shared_from_this(), false, x, std::move(*y));
}

}  // namespace medcrypt::ec

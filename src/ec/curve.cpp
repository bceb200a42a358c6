#include "ec/curve.h"

#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "common/error.h"
#include "ec/point.h"

namespace medcrypt::ec {

Curve::Curve(const PrimeField* field, BigInt order, BigInt cofactor)
    : field_(field),
      order_(std::move(order)),
      cofactor_(std::move(cofactor)),
      chain_(order_, cofactor_) {}

const Curve* Curve::make(const PrimeField* field, BigInt order,
                         BigInt cofactor) {
  if (field->sqrt_exponent().is_zero()) {
    throw InvalidArgument("Curve::make: field prime must be 3 mod 4");
  }
  if (order <= BigInt(1) || cofactor < BigInt(1)) {
    throw InvalidArgument("Curve::make: bad order/cofactor");
  }
  // Leaked and never erased, like PrimeField::make's table: one
  // (field, q, h) always maps to one context. Fields are interned, so
  // the modulus stands for the field.
  using Params = std::tuple<BigInt, BigInt, BigInt>;
  static auto* mu = new std::mutex;
  static auto* table = new std::map<Params, std::unique_ptr<const Curve>>;
  const std::lock_guard lock(*mu);
  Params params(field->modulus(), std::move(order), std::move(cofactor));
  auto it = table->find(params);
  if (it == table->end()) {
    std::unique_ptr<const Curve> curve(
        new Curve(field, std::get<1>(params), std::get<2>(params)));
    it = table->emplace(std::move(params), std::move(curve)).first;
  }
  return it->second.get();
}

Point Curve::infinity() const {
  return Point(this, true, Fp{}, Fp{});
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
  return Point(this, false, std::move(x), std::move(y));
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
  return Point(this, false, x, std::move(*y));
}

}  // namespace medcrypt::ec

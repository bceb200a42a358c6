#include "field/fp2.h"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/error.h"

namespace medcrypt::field {

Fp2::Fp2(Fp a, Fp b) : a_(std::move(a)), b_(std::move(b)) {}

Fp2::Fp2(Fp a) : a_(std::move(a)) {
  b_ = a_.field()->zero();
}

void Fp2::mul_pair(const Fp& c, const Fp& d) {
  // (a + bi)(c + di) = (ac - bd) + ((a+b)(c+d) - ac - bd) i
  Fp ac = a_;
  ac *= c;
  Fp bd = b_;
  bd *= d;
  Fp cross = a_;
  cross += b_;
  Fp sum2 = c;
  sum2 += d;
  cross *= sum2;
  cross -= ac;
  cross -= bd;
  a_ = std::move(ac);
  a_ -= bd;
  b_ = std::move(cross);
}

void Fp2::mul_inplace(const Fp2& o) { mul_pair(o.a_, o.b_); }

void Fp2::mul_line_inplace(const Fp& c, const Fp& d) { mul_pair(c, d); }

void Fp2::square_inplace() {
  // (a + bi)^2 = (a+b)(a-b) + 2ab i
  Fp sum = a_;
  sum += b_;
  Fp diff = a_;
  diff -= b_;
  sum *= diff;   // (a+b)(a-b)
  b_ *= a_;      // ab
  b_.dbl_inplace();
  a_ = std::move(sum);
}

Fp2 Fp2::operator*(const Fp2& o) const {
  Fp2 r = *this;
  r.mul_inplace(o);
  return r;
}

Fp2 Fp2::square() const {
  Fp2 r = *this;
  r.square_inplace();
  return r;
}

Fp2 Fp2::inverse() const {
  if (is_zero()) throw InvalidArgument("Fp2: inverse of zero");
  const Fp n_inv = norm().inverse();
  Fp ra = a_;
  ra *= n_inv;
  Fp rb = b_;
  rb *= n_inv;
  rb.negate_inplace();
  return Fp2(std::move(ra), std::move(rb));
}

Fp2 Fp2::pow(const BigInt& e) const {
  if (e.is_negative()) throw InvalidArgument("Fp2::pow: negative exponent");
  Fp2 result = one(a_.field());
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result.square_inplace();
    if (e.bit(i)) result.mul_inplace(*this);
  }
  return result;
}

Fp2 pow_fixed_window(const Fp2& base, const BigInt& k, std::size_t bits) {
  std::array<Fp2, 16> table;
  table[0] = Fp2::one(base.re().field());
  table[1] = base;
  for (std::size_t i = 2; i < table.size(); ++i) {
    table[i] = table[i - 1];
    table[i].mul_inplace(base);
  }
  const auto digit = [&k](std::size_t w) {
    unsigned d = 0;
    for (int i = 3; i >= 0; --i) d = (d << 1) | unsigned{k.bit(w * 4 + i)};
    return d;
  };
  std::size_t w = (bits + 3) / 4;
  Fp2 acc = table[w == 0 ? 0 : digit(--w)];
  while (w-- > 0) {
    for (int i = 0; i < 4; ++i) acc.square_inplace();
    acc.mul_inplace(table[digit(w)]);
  }
  return acc;
}

Fp2 multi_pow(std::span<const Fp2> bases, std::span<const BigInt> exps) {
  std::size_t bits = 0;
  for (const BigInt& e : exps) bits = std::max(bits, e.bit_length());
  Fp2 acc = Fp2::one(bases.front().re().field());
  for (std::size_t i = bits; i-- > 0;) {
    acc.square_inplace();
    for (std::size_t j = 0; j < bases.size(); ++j) {
      if (exps[j].bit(i)) acc.mul_inplace(bases[j]);
    }
  }
  return acc;
}

Bytes Fp2::to_bytes() const {
  return concat(a_.to_bytes(), b_.to_bytes());
}

Fp2 Fp2::from_bytes(const std::shared_ptr<const PrimeField>& field,
                    BytesView bytes) {
  const std::size_t half_len = field->byte_size();
  if (bytes.size() != 2 * half_len) {
    throw InvalidArgument("Fp2::from_bytes: wrong length");
  }
  return Fp2(field->from_bytes(bytes.subspan(0, half_len)),
             field->from_bytes(bytes.subspan(half_len)));
}

Fp2 Fp2::random(const std::shared_ptr<const PrimeField>& field,
                RandomSource& rng) {
  return Fp2(field->random(rng), field->random(rng));
}

Fp2 Fp2::one(const std::shared_ptr<const PrimeField>& field) {
  return Fp2(field->one(), field->zero());
}

void batch_inverse(std::span<Fp2> xs) {
  if (xs.empty()) return;
  for (const Fp2& x : xs) {
    if (x.is_zero()) {
      throw InvalidArgument("batch_inverse: zero element");
    }
  }
  if (xs.size() == 1) {
    xs[0] = xs[0].inverse();
    return;
  }
  // prefix[i] = x_0 · … · x_i; invert the full product once, then peel
  // one factor per step walking backwards.
  std::vector<Fp2> prefix(xs.size());
  prefix[0] = xs[0];
  for (std::size_t i = 1; i < xs.size(); ++i) {
    prefix[i] = prefix[i - 1];
    prefix[i].mul_inplace(xs[i]);
  }
  Fp2 inv_tail = prefix.back().inverse();
  for (std::size_t i = xs.size(); i-- > 1;) {
    Fp2 inv_i = inv_tail;
    inv_i.mul_inplace(prefix[i - 1]);  // 1/x_i
    inv_tail.mul_inplace(xs[i]);       // drop x_i from the tail
    xs[i] = std::move(inv_i);
  }
  xs[0] = std::move(inv_tail);
}

}  // namespace medcrypt::field
